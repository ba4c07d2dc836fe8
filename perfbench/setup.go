package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/registry"
)

// trainTimes are the set-up phases of one model training.
type trainTimes struct {
	generate, fit time.Duration
}

// trainModel builds the model roboptd -quick trains on first boot:
// experiments.Harness{Quick: true}.Model over all five platforms, a
// 2-member ensemble of 150-tree depth-5 log-target GBMs. It calls the same
// public steps Harness.Model does, with the same seeds, so the artifact is
// byte-identical to roboptd's; the only difference is that the two members
// train side by side, which fits the benchmark's time budget. Generation
// and fitting are timed as separate phases.
func trainModel(plats []platform.ID, avail *platform.Availability) (mlmodel.Model, trainTimes, error) {
	const members = 2
	h := experiments.NewHarness()
	h.Quick = true
	sets := make([]*mlmodel.Dataset, members)
	models := make([]mlmodel.Model, members)
	var tt trainTimes

	t0 := time.Now()
	err := forEach(members, func(i int) error {
		ds, err := h.GenerateTrainingData(plats, avail, int64(i)*101)
		sets[i] = ds
		return err
	})
	tt.generate = time.Since(t0)
	if err != nil {
		return nil, tt, err
	}
	t1 := time.Now()
	err = forEach(members, func(i int) error {
		m, err := experiments.TrainOnDataset(sets[i], true, 7+int64(i)*211)
		models[i] = m
		return err
	})
	tt.fit = time.Since(t1)
	if err != nil {
		return nil, tt, err
	}
	return mlmodel.Ensemble{Models: models}, tt, nil
}

// forEach runs fn(0..n-1) on n goroutines and returns the first error.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newArtifact wraps the trained model the way roboptd does on a training
// boot.
func newArtifact(m mlmodel.Model, plats []platform.ID) (*registry.Artifact, error) {
	schema, err := core.NewSchema(plats)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(plats))
	for i, p := range plats {
		names[i] = p.String()
	}
	return registry.New(m, schema.Len(), names, 0, mlmodel.Metrics{})
}

// writeArtifact persists art where replicas boot from it: a -model file, or
// the active version of a fresh -model-dir store.
func writeArtifact(art *registry.Artifact, path string, store bool) error {
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	if store {
		s, err := registry.OpenStore(path)
		if err != nil {
			return err
		}
		v, err := s.Save(art)
		if err != nil {
			return err
		}
		return s.Activate(v)
	}
	var buf bytes.Buffer
	if err := art.Write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadArtifact reads the artifact back the way a replica does, so the
// reference answers come from exactly what the replicas serve.
func loadArtifact(path string, store bool) (*registry.Artifact, error) {
	if store {
		s, err := registry.OpenStore(path)
		if err != nil {
			return nil, err
		}
		return s.LoadActive()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return registry.ReadAny(f)
}

// replica is one roboptd process serving on a loopback port.
type replica struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// startReplica launches roboptd on a free loopback port with the given
// extra flags; all other flags keep their defaults. Its log goes to
// logPath.
func startReplica(bin, logPath string, flags ...string) (*replica, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The replica must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start roboptd: %w", err)
	}
	r := &replica{cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		r.err = cmd.Wait()
		close(r.done)
	}()
	return r, nil
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitReady polls GET /readyz until it answers 200.
func (r *replica) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-r.done:
			return fmt.Errorf("roboptd exited before it was ready (%v); log %s:\n%s", r.err, r.log.Name(), tail(r.log.Name()))
		case <-ctx.Done():
			return fmt.Errorf("roboptd not ready: %w; log %s:\n%s", ctx.Err(), r.log.Name(), tail(r.log.Name()))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop ends the replica with SIGTERM (its graceful drain), escalating to
// SIGKILL, and returns once the process has exited.
func (r *replica) stop() {
	_ = r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.done
	}
	r.log.Close()
}

// tail returns the last 2 KiB of a log file, for error messages.
func tail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2048 {
		raw = raw[len(raw)-2048:]
	}
	return string(raw)
}

// fleet is the set of replicas a workload runs against.
type fleet []*replica

func (f fleet) stop() {
	for _, r := range f {
		r.stop()
	}
}

func (f fleet) pids() []int {
	pids := make([]int, len(f))
	for i, r := range f {
		pids[i] = r.cmd.Process.Pid
	}
	return pids
}

// bootFleet starts n replicas from the artifact at path (a store when
// shared) and waits until every one is ready. Replicas sharing a store
// form a peer-fill fleet.
func bootFleet(ctx context.Context, bin, dir, path string, n int, shared bool) (fleet, error) {
	var f fleet
	for i := 0; i < n; i++ {
		flags := []string{"-model", path}
		if shared {
			flags = []string{"-model-dir", path, "-peer-fill"}
		}
		r, err := startReplica(bin, filepath.Join(dir, fmt.Sprintf("replica%d.log", i)), flags...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, r)
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for _, r := range f {
		if err := r.waitReady(ctx); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}
