package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCounterConcurrent(t *testing.T) {
	r := obs.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != 16000 {
		t.Fatalf("hits = %d, want 16000", got)
	}
	r.Counter("hits").Add(-5)
	if got := r.Counter("hits").Load(); got != 16000 {
		t.Fatalf("negative delta changed the counter: %d", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &obs.Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %g", h.Sum())
	}
	// Quantiles interpolate linearly within the winning bucket: p50 of
	// 1..100 has rank 50 in the (32,64] bucket, which holds ranks 33..64,
	// so the estimate is 32 + 32·(50-32)/32 = 50 — exact here because the
	// bucket is uniformly filled.
	if q := h.Quantile(0.5); q != 50 {
		t.Fatalf("p50 = %g, want 50", q)
	}
	// p25 (rank 25) lands in (16,32] holding ranks 17..32: 16 + 16·(25-16)/16.
	if q := h.Quantile(0.25); q != 25 {
		t.Fatalf("p25 = %g, want 25", q)
	}
	if q := h.Quantile(1); q != 128 {
		t.Fatalf("p100 = %g, want 128", q)
	}
	s := h.Snapshot()
	if s.Le[len(s.Le)-1].Count != 100 {
		t.Fatalf("cumulative tail = %d, want 100", s.Le[len(s.Le)-1].Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &obs.Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(2)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 || h.Sum() != 8000 {
		t.Fatalf("count=%d sum=%g, want 4000/8000", h.Count(), h.Sum())
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Histogram("optimize_ms").Observe(12.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var round obs.Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if round.Counters["requests_total"] != 3 {
		t.Fatalf("counter lost in round trip: %+v", round.Counters)
	}
	if round.Histograms["optimize_ms"].Count != 1 {
		t.Fatalf("histogram lost in round trip: %+v", round.Histograms)
	}
}

func TestStageTimings(t *testing.T) {
	a := obs.StageTimings{Merge: 2 * time.Millisecond, Prune: 3 * time.Millisecond}
	b := obs.StageTimings{Vectorize: time.Millisecond, Prune: time.Millisecond}
	a.Add(b)
	if a.Total() != 7*time.Millisecond {
		t.Fatalf("total = %v, want 7ms", a.Total())
	}
	ms := a.Milliseconds()
	if ms["prune"] != 4 || ms["vectorize"] != 1 {
		t.Fatalf("milliseconds map wrong: %v", ms)
	}
}

func TestGauge(t *testing.T) {
	r := obs.NewRegistry()
	g := r.Gauge("feedback_buffer_len")
	g.Set(42.5)
	if got := g.Load(); got != 42.5 {
		t.Fatalf("gauge = %g, want 42.5", got)
	}
	if r.Gauge("feedback_buffer_len") != g {
		t.Fatal("Gauge lookup is not stable")
	}
	s := r.Snapshot()
	if s.Gauges["feedback_buffer_len"] != 42.5 {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
}

// TestGaugeAdd: concurrent up/down deltas must not lose updates — the
// admission queue-depth gauge depends on this.
func TestGaugeAdd(t *testing.T) {
	var g obs.Gauge
	g.Set(10)
	g.Add(2.5)
	g.Add(-0.5)
	if got := g.Load(); got != 12 {
		t.Fatalf("gauge after adds = %g, want 12", got)
	}
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 12 {
		t.Fatalf("gauge after balanced concurrent adds = %g, want 12", got)
	}
}

// TestExemplarsResolveAfterRingEviction fills a tracer's retention ring past
// capacity while stamping one exemplar per histogram bucket, so the oldest
// buckets' exemplars name evicted traces. With the tracer as exemplar
// filter, every exemplar the JSON snapshot and the Prometheus exposition
// expose must resolve via Tracer.Get, and the still-retained ones must stay
// exposed.
func TestExemplarsResolveAfterRingEviction(t *testing.T) {
	const ringCap, traces = 4, 10
	tr := obs.NewTracer(ringCap, 0, 0)
	r := obs.NewRegistry()
	h := r.Histogram("lat_ms")
	hv := r.HistogramVec("serving_ms", "endpoint")
	var ids []string
	for i := 0; i < traces; i++ {
		id := fmt.Sprintf("%032x", i+1)
		ids = append(ids, id)
		if !tr.Finish(tr.Start(id), true, "") {
			t.Fatalf("forced trace %s not retained", id)
		}
		v := math.Pow(2, float64(i)) // one bucket per trace
		h.ObserveExemplar(v, id)
		hv.With("optimize").ObserveExemplar(v, id)
	}
	evicted := 0
	for _, id := range ids {
		if tr.Get(id) == nil {
			evicted++
		}
	}
	if evicted != traces-ringCap {
		t.Fatalf("%d traces evicted, want %d", evicted, traces-ringCap)
	}

	exposed := func() (inJSON, inProm []string) {
		t.Helper()
		snap := r.Snapshot()
		for _, name := range []string{"lat_ms", `serving_ms{endpoint="optimize"}`} {
			for _, b := range snap.Histograms[name].Le {
				if b.Exemplar != nil {
					inJSON = append(inJSON, b.Exemplar.TraceID)
				}
			}
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if i := strings.Index(line, `# {trace_id="`); i >= 0 {
				id := line[i+len(`# {trace_id="`):]
				inProm = append(inProm, id[:strings.Index(id, `"`)])
			}
		}
		return inJSON, inProm
	}

	// Unfiltered, the evicted traces' exemplars are still exposed.
	js, pr := exposed()
	if len(js) != 2*traces || len(pr) != 2*traces {
		t.Fatalf("unfiltered: %d JSON and %d Prometheus exemplars, want %d each", len(js), len(pr), 2*traces)
	}

	r.SetExemplarFilter(func(id string) bool { return tr.Get(id) != nil })
	js, pr = exposed()
	for _, out := range [][]string{js, pr} {
		if len(out) != 2*ringCap {
			t.Errorf("filtered: %d exemplars exposed, want %d (the retained traces, twice)", len(out), 2*ringCap)
		}
		for _, id := range out {
			if tr.Get(id) == nil {
				t.Errorf("exposed exemplar %s does not resolve", id)
			}
		}
	}
}
