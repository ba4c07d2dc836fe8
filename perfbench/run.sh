#!/usr/bin/env bash
# Builds roboptd and the benchmark driver from the checkout's sources and runs
# one benchmark measurement. Run from the repository root:
#
#	bash perfbench/run.sh --workload cold-plans --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, binaries, model artifacts).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/roboptd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/roboptd and perfbench/ not found in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/roboptd" ./cmd/roboptd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -roboptd "$build/roboptd" -workdir "$build" "$@"
