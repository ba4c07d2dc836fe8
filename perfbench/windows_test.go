package main

import (
	"testing"
	"time"
)

func TestWindowed(t *testing.T) {
	msec := time.Millisecond
	ws := []window{
		{from: 0, to: time.Second, cpu: 300 * msec},
		{from: time.Second, to: 2 * time.Second, cpu: 50 * msec},
		{from: 2 * time.Second, to: 4 * time.Second, cpu: 0},
	}
	samples := []sample{
		{latency: 1 * msec, end: 100 * msec},
		{latency: 2 * msec, end: 500 * msec},
		{latency: 3 * msec, end: 999 * msec},
		// A failure is not counted, and a completion on a window's edge
		// belongs to the window it opens.
		{latency: 50 * msec, end: 600 * msec, failure: "mismatch"},
		{latency: 10 * msec, end: time.Second},
		// Completed after the last window: not counted.
		{latency: 7 * msec, end: 5 * time.Second},
	}
	got := windowed(samples, ws)
	wantRPS := []float64{3, 1, 0}
	if len(got.rps) != len(wantRPS) {
		t.Fatalf("rps = %v, want %v", got.rps, wantRPS)
	}
	for i := range wantRPS {
		if !near(got.rps[i], wantRPS[i]) {
			t.Errorf("rps[%d] = %v, want %v", i, got.rps[i], wantRPS[i])
		}
	}
	// The empty third window has no latency or CPU share.
	if len(got.p50) != 2 || !near(got.p50[0], 2) || !near(got.p50[1], 10) {
		t.Errorf("p50 = %v, want [2 10]", got.p50)
	}
	if len(got.p90) != 2 || !near(got.p90[0], 2.8) || !near(got.p90[1], 10) {
		t.Errorf("p90 = %v, want [2.8 10]", got.p90)
	}
	if len(got.cpuPerReq) != 2 || !near(got.cpuPerReq[0], 100) || !near(got.cpuPerReq[1], 50) {
		t.Errorf("cpuPerReq = %v, want [100 50]", got.cpuPerReq)
	}
}

func TestCalmWindows(t *testing.T) {
	at := func(steals ...float64) []window {
		ws := make([]window, len(steals))
		for i, s := range steals {
			ws[i] = window{from: time.Duration(i) * time.Second, to: time.Duration(i+1) * time.Second, steal: s}
		}
		return ws
	}
	froms := func(ws []window) []int {
		var out []int
		for _, w := range ws {
			out = append(out, int(w.from/time.Second))
		}
		return out
	}
	for _, c := range []struct {
		name string
		ws   []window
		want []int
	}{
		{"none", nil, nil},
		{"all calm", at(0, 0.01, 0.05), []int{0, 1, 2}},
		{"some stolen", at(0.01, 0.30, 0.02, 0.20, 0), []int{0, 2, 4}},
		// Fewer than half calm: the half with the least steal, in order.
		{"busy host", at(0.30, 0.10, 0.40, 0.08, 0.20), []int{1, 3, 4}},
		{"busy host, even", at(0.30, 0.10, 0.40, 0.08), []int{1, 3}},
	} {
		got := froms(calmWindows(c.ws))
		if len(got) != len(c.want) {
			t.Errorf("%s: calm windows %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: calm windows %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}
