package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file pins the optimizer's observable output to a committed golden
// file: for random DAGs of 5-40 operators, every fitted model family,
// λ ∈ {0, 0.5} and Workers ∈ {1, 4}, the chosen assignment, the bits of
// Predicted and PredictedDist, Stats.Counters() and the pruning audit (every
// PruneRecord, the final selection and the per-operator contributions, kept
// as a SHA-256 of their JSON) must reproduce testdata/golden_parity.json
// exactly. Internal rewrites of the enumeration (how merged vectors are
// stored, when feature rows are built, how predictions are cached) must not
// move a single bit of it.
//
// Regenerate only when a change is meant to alter plans or counters:
//
//	go test ./internal/core -run TestGoldenParity -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_parity.json from the current code")

const goldenPath = "testdata/golden_parity.json"

// goldenCase is the recorded outcome of one optimization.
type goldenCase struct {
	Name      string          `json:"name"`
	Assign    string          `json:"assign"`              // hex of the chosen platform per operator
	Predicted string          `json:"predicted,omitempty"` // hex of math.Float64bits
	Dist      [4]string       `json:"dist"`                // mean, spread, lo, hi bits
	Counters  json.RawMessage `json:"counters"`
	Audit     string          `json:"audit,omitempty"` // SHA-256 of the audit JSON
	// Final summarizes the final enumeration of runs that stop before
	// selection (the TDGen switch-pruned enumeration): every vector's
	// assignment and a digest of its feature bits, in order.
	Final []string `json:"final,omitempty"`
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// featureDigest hashes a vector's feature cells bit for bit.
func featureDigest(f []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range f {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func resultCase(t *testing.T, name string, res *core.Result) goldenCase {
	t.Helper()
	assign := make([]byte, len(res.Execution.Assign))
	for i, p := range res.Execution.Assign {
		assign[i] = byte(p)
	}
	counters, err := json.Marshal(res.Stats.Counters())
	if err != nil {
		t.Fatal(err)
	}
	res.Trace.ScoreContributions()
	audit, err := json.Marshal(struct {
		Prunes     []*core.PruneRecord   `json:"prunes"`
		Final      *core.FinalSelection  `json:"final"`
		OpContribs []core.OpContribution `json:"opContribs"`
	}{res.Trace.Prunes, res.Trace.Final, res.Trace.OpContribs})
	if err != nil {
		t.Fatal(err)
	}
	d := res.PredictedDist
	sum := sha256.Sum256(audit)
	return goldenCase{
		Name:      name,
		Assign:    hex.EncodeToString(assign),
		Predicted: bitsHex(res.Predicted),
		Dist:      [4]string{bitsHex(d.Mean), bitsHex(d.Spread), bitsHex(d.Lo), bitsHex(d.Hi)},
		Counters:  counters,
		Audit:     hex.EncodeToString(sum[:]),
	}
}

// goldenRuns computes every case of the golden file with the current code.
// Each case runs once per worker count; the worker counts must agree with
// each other before the case is compared with (or written to) the file.
func goldenRuns(t *testing.T) []goldenCase {
	t.Helper()
	dags := []struct {
		nOps int
		seed int64
	}{{5, 11}, {14, 23}, {26, 37}, {40, 53}}
	risks := []struct {
		name string
		risk core.Risk
	}{
		{"lambda0", core.Risk{}},
		{"lambda0.5", core.Risk{Lambda: 0.5, KeepOverlap: true}},
	}
	var out []goldenCase
	agree := func(runs []goldenCase) goldenCase {
		t.Helper()
		ref, _ := json.Marshal(runs[0])
		for _, r := range runs[1:] {
			if got, _ := json.Marshal(r); string(got) != string(ref) {
				t.Fatalf("%s: worker counts disagree", r.Name)
			}
		}
		return runs[0]
	}
	for _, dg := range dags {
		l := workload.RandomDAG(dg.nOps, 1e8, dg.seed)
		probe := newCtx(t, l, 3)
		families := fitFamilies(t, probe.Schema.Len(), dg.seed+7)
		for _, fam := range []string{"tree", "forest", "gbm", "linear", "mlp", "ensemble"} {
			for _, rk := range risks {
				name := fmt.Sprintf("dag%d/%s/%s", dg.nOps, fam, rk.name)
				var runs []goldenCase
				for _, workers := range []int{1, 4} {
					ctx := newCtx(t, l, 3)
					ctx.Workers = workers
					ctx.Risk = rk.risk
					ctx.Trace = obs.NewTrace("golden")
					res, err := ctx.Optimize(context.Background(), families[fam])
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					runs = append(runs, resultCase(t, name, res))
				}
				out = append(out, agree(runs))
			}
		}
	}

	// Pruners that read features at prune time: SwitchCountProperty under
	// a PropertyPruner, and TDGen's SwitchPruner.
	l := workload.RandomDAG(18, 1e8, 71)
	probe := newCtx(t, l, 3)
	gbm := fitFamilies(t, probe.Schema.Len(), 78)["gbm"]
	var runs []goldenCase
	for _, workers := range []int{1, 4} {
		ctx := newCtx(t, l, 3)
		ctx.Workers = workers
		ctx.Trace = obs.NewTrace("golden")
		pr := core.PropertyPruner{Model: gbm, Properties: []core.Property{core.SwitchCountProperty{}}}
		res, err := ctx.OptimizeOpts(context.Background(), gbm, pr, core.OrderPriority)
		if err != nil {
			t.Fatalf("property pruner: %v", err)
		}
		runs = append(runs, resultCase(t, "dag18/gbm/switch-count-property", res))
	}
	out = append(out, agree(runs))

	runs = nil
	for _, workers := range []int{1, 4} {
		ctx := newCtx(t, l, 3)
		ctx.Workers = workers
		var st core.Stats
		final, err := ctx.EnumerateFull(context.Background(), core.SwitchPruner{Beta: 2, MaxVectors: 24}, core.OrderPriority, &st)
		if err != nil {
			t.Fatalf("switch pruner: %v", err)
		}
		counters, err := json.Marshal(st.Counters())
		if err != nil {
			t.Fatal(err)
		}
		gc := goldenCase{Name: "dag18/tdgen-switch-pruner", Counters: counters}
		for _, v := range final.Vectors {
			gc.Final = append(gc.Final, hex.EncodeToString(v.Assign)+":"+featureDigest(v.F))
		}
		runs = append(runs, gc)
	}
	out = append(out, agree(runs))
	return out
}

// TestGoldenParity checks that the optimizer reproduces the committed golden
// file bit for bit.
func TestGoldenParity(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateGolden {
		// The file records float bits computed on amd64; other
		// architectures may fuse multiply-adds and round differently.
		t.Skipf("golden bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	got := goldenRuns(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode golden file: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("%s: differs from the golden file\ngot:  %.600s\nwant: %.600s", want[i].Name, g, w)
		}
	}
}
