package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestAggregateSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.enumerate", Start: 10, End: 90},
		// Two concurrent inference calls overlapping on [30, 40]: together
		// they cover [20, 50] once, 30ns of the enumerate span.
		{ID: 2, Parent: 1, Name: "mlmodel.infer", Start: 20, End: 40, Rows: 8},
		{ID: 3, Parent: 1, Name: "mlmodel.infer", Start: 30, End: 50, Rows: 4},
		// A child running past its parent only covers the parent's part.
		{ID: 4, Parent: 1, Name: "mlmodel.infer", Start: 85, End: 95, Rows: 1},
		{ID: 5, Parent: 0, Name: "service.encode", Start: 90, End: 98},
	}
	lt := aggregate(spans)
	for _, c := range []struct {
		name       string
		total, own time.Duration
	}{
		{"request", 100, 100 - 80 - 8},
		{"core.enumerate", 80, 80 - 30 - 5},
		{"mlmodel.infer", 50, 50},
		{"service.encode", 8, 8},
	} {
		if lt.total[c.name] != c.total || lt.self[c.name] != c.own {
			t.Errorf("%s: total %v self %v, want %v and %v", c.name, lt.total[c.name], lt.self[c.name], c.total, c.own)
		}
	}
	if lt.count["mlmodel.infer"] != 3 || lt.rows["mlmodel.infer"] != 13 {
		t.Errorf("mlmodel.infer: %d spans %d rows, want 3 and 13", lt.count["mlmodel.infer"], lt.rows["mlmodel.infer"])
	}
}

func TestCoveredMergesTouchingAndNestedIntervals(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 60, End: 70}, {Start: 10, End: 20}, {Start: 20, End: 30},
		{Start: 12, End: 18}, {Start: -5, End: 5},
	}
	if got, want := covered(parent, kids), time.Duration(5+20+10); got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}

func TestRecorderNilAndNesting(t *testing.T) {
	var none *recorder
	if id := none.start("x", -1, 0); id != -1 {
		t.Errorf("nil recorder start = %d, want -1", id)
	}
	none.end(-1, 0)

	r := newRecorder()
	root := r.start("request", -1, 7)
	child := r.start("plan.decode", root, 7)
	r.end(child, 0)
	r.end(root, 0)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
}

// The layer metrics of a replayed request add up to its handler time:
// service.other_us is what the layer spans do not cover.
func TestLayerMetricsAccountForHandlerTime(t *testing.T) {
	us := int64(time.Microsecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 2000 * us},
		{ID: 1, Parent: 0, Name: "service.handler", Start: 0, End: 1000 * us},
		{ID: 2, Parent: 1, Name: "service.handler.infer", Start: 100 * us, End: 600 * us, Rows: 50},
		{ID: 3, Parent: 0, Name: "plan.decode", Start: 1000 * us, End: 1100 * us},
		{ID: 4, Parent: 0, Name: "core.context", Start: 1100 * us, End: 1110 * us},
		{ID: 5, Parent: 0, Name: "plancache.fingerprint", Start: 1110 * us, End: 1130 * us},
		{ID: 6, Parent: 0, Name: "plancache.get", Start: 1130 * us, End: 1131 * us},
		{ID: 7, Parent: 0, Name: "core.enumerate", Start: 1131 * us, End: 1931 * us},
		{ID: 8, Parent: 7, Name: "mlmodel.infer", Start: 1200 * us, End: 1700 * us, Rows: 50},
		{ID: 9, Parent: 0, Name: "service.encode", Start: 1931 * us, End: 1940 * us},
	}
	m := layerMetrics(aggregate(spans), &chain{plans: make([]core.Stats, 1)}, 1)
	parts := m["plan.decode_us"].Value + m["core.context_us"].Value + m["plancache.fingerprint_us"].Value +
		m["plancache.get_us"].Value + m["plancache.materialize_us"].Value + m["service.encode_us"].Value +
		m["core.enumerate_ms"].Value*1000 + m["service.other_us"].Value
	if handler := m["service.handler_us"].Value; handler != 1000 || math.Abs(parts-handler) > 1e-9 {
		t.Errorf("handler %v µs, layers plus other %v µs, want both 1000", handler, parts)
	}
	if got := m["core.enumerate_self_ms"].Value; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("core.enumerate_self_ms = %v, want 0.3", got)
	}
	if got := m["mlmodel.infer_ns_per_row"].Value; got != 10000 {
		t.Errorf("mlmodel.infer_ns_per_row = %v, want 10000 (the handler's model calls excluded)", got)
	}
}

// The parallel enumeration calls the model from several goroutines at
// once, so spans open and close concurrently.
func TestRecorderConcurrentSpans(t *testing.T) {
	r := newRecorder()
	root := r.start("core.enumerate", -1, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.end(r.start("mlmodel.infer", root, 0), 1)
			}
		}()
	}
	wg.Wait()
	r.end(root, 0)
	lt := aggregate(r.snapshot())
	if lt.count["mlmodel.infer"] != 400 || lt.rows["mlmodel.infer"] != 400 {
		t.Errorf("recorded %d inference spans with %d rows, want 400 and 400", lt.count["mlmodel.infer"], lt.rows["mlmodel.infer"])
	}
	if lt.self["core.enumerate"] < 0 {
		t.Errorf("negative self time %v", lt.self["core.enumerate"])
	}
}
