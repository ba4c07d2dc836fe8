// Package obs provides the lightweight observability primitives the
// optimizer service exposes on /metricz: lock-free counters, fixed-bucket
// histograms, settable gauges, a named registry with JSON-ready snapshots,
// and per-stage span timings for the optimization pipeline (vectorize,
// enumerate, merge, prune, unvectorize).
//
// Everything is safe for concurrent use from request handlers and from the
// enumeration worker goroutines; observation is a handful of atomic
// operations, cheap enough to stay enabled in production.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d may be any nonnegative delta; negative deltas are ignored to
// keep the counter monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value: buffer fill levels, the active
// model's training-set size, last-event timestamps. Reads and writes are
// single atomic operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Add atomically adds d to the gauge (CAS loop; d may be negative). This is
// what up/down occupancy gauges — queue depths, in-flight request counts —
// use, where concurrent increments and decrements must not lose updates the
// way a Load+Set pair would.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// numBuckets is the fixed number of histogram buckets. Bucket i collects
// values in (2^(i-1), 2^i]; bucket 0 collects everything ≤ 1 and the last
// bucket is a catch-all for the long tail. With 40 buckets the histogram
// spans twelve decades — microseconds to hours when observing milliseconds.
const numBuckets = 40

// Exemplar ties a recent observation to the trace that produced it: the
// operational bridge from a histogram bucket ("p99 spiked") to a retained
// trace ("this request is why"). Stored per bucket, last writer wins.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"traceId"`
}

// Histogram is a fixed-layout exponential histogram. Observations and
// snapshots are lock-free; the float64 sum is maintained with a CAS loop.
// Each bucket optionally retains the exemplar of its most recent traced
// observation (ObserveExemplar).
type Histogram struct {
	count     atomic.Int64
	sumBits   atomic.Uint64
	buckets   [numBuckets]atomic.Int64
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v)))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveExemplar records one value and, when traceID is non-empty, stamps
// it as the exemplar of the value's bucket — a plain Observe otherwise. The
// caller passes a trace ID only for runs whose trace was actually retained.
// A bucket's exemplar can outlive its trace in a bounded retention ring, so
// registries expose exemplars through their exemplar filter
// (Registry.SetExemplarFilter), which keeps every exposed exemplar
// resolvable via /tracez?id=.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" || math.IsNaN(v) {
		return
	}
	h.exemplars[bucketOf(v)].Store(&Exemplar{Value: v, TraceID: traceID})
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts.
// The estimator locates the bucket containing the rank ⌈q·count⌉ and
// linearly interpolates within it, assuming observations are uniformly
// distributed across the bucket's range (lower bound 0 for the first
// bucket, 2^(i-1) otherwise; upper bound 2^i): the estimate is
//
//	lower + (upper-lower) · (rank - countBefore) / bucketCount
//
// which is exact for uniformly filled buckets and bounded by the bucket
// edges otherwise — strictly tighter than the upper-bound attribution it
// replaces. Values in the catch-all last bucket still report its lower
// power-of-two scaled by the same interpolation. Returns 0 on an empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := math.Ceil(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n > 0 && float64(seen+n) >= rank {
			upper := math.Pow(2, float64(i))
			lower := 0.0
			if i > 0 {
				lower = math.Pow(2, float64(i-1))
			}
			return lower + (upper-lower)*(rank-float64(seen))/float64(n)
		}
		seen += n
	}
	return math.Pow(2, float64(numBuckets-1))
}

// HistogramSnapshot is the JSON-ready state of a histogram. Buckets lists
// only the non-empty buckets as {le, count} pairs with cumulative counts,
// prometheus-style.
type HistogramSnapshot struct {
	Count int64          `json:"count"`
	Sum   float64        `json:"sum"`
	Avg   float64        `json:"avg"`
	P50   float64        `json:"p50"`
	P90   float64        `json:"p90"`
	P99   float64        `json:"p99"`
	Le    []BucketOfHist `json:"buckets,omitempty"`
}

// BucketOfHist is one cumulative histogram bucket: Count observations were
// ≤ Le. Exemplar, when present, names a retained trace whose observation
// landed in this (non-cumulative) bucket.
type BucketOfHist struct {
	Le       float64   `json:"le"`
	Count    int64     `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot returns a consistent-enough copy for reporting (buckets are read
// individually; exact cross-field consistency is not guaranteed under
// concurrent writes, which is fine for monitoring).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	if s.Count > 0 {
		s.Avg = s.Sum / float64(s.Count)
	}
	s.P50, s.P90, s.P99 = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		s.Le = append(s.Le, BucketOfHist{Le: math.Pow(2, float64(i)), Count: cum, Exemplar: h.exemplars[i].Load()})
	}
	return s
}

// Registry is a named collection of counters and histograms. Lookups are
// get-or-create and safe for concurrent use; names are stable identifiers
// reported verbatim on /metricz.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	cvecs    map[string]*CounterVec
	hvecs    map[string]*HistogramVec

	// exemplarOK, when set, decides which exemplars snapshots expose.
	exemplarOK func(traceID string) bool
}

// SetExemplarFilter makes Snapshot and WritePrometheus expose only the
// exemplars whose trace ID keep accepts — typically the IDs a Tracer still
// resolves, so no exposed exemplar names a trace evicted from the retention
// ring. nil exposes every exemplar.
func (r *Registry) SetExemplarFilter(keep func(traceID string) bool) {
	r.mu.Lock()
	r.exemplarOK = keep
	r.mu.Unlock()
}

// filterExemplars drops from a histogram snapshot the exemplars the
// registry's exemplar filter rejects. Callers hold r.mu.
func (r *Registry) filterExemplars(s HistogramSnapshot) HistogramSnapshot {
	if r.exemplarOK == nil {
		return s
	}
	for i, b := range s.Le {
		if b.Exemplar != nil && !r.exemplarOK(b.Exemplar.TraceID) {
			s.Le[i].Exemplar = nil
		}
	}
	return s
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]*Gauge{},
		cvecs:    map[string]*CounterVec{},
		hvecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Snapshot is the JSON-ready state of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
}

// Snapshot captures every registered metric. Names are sorted into the maps
// deterministically (Go maps marshal in sorted key order). Labeled series
// appear under their full exposition name — `family{k="v",...}` — so JSON
// consumers see one flat namespace.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.Counters[n] = r.counters[n].Load()
	}
	for n, v := range r.cvecs {
		for key, val := range v.snapshot() {
			s.Counters[n+"{"+key+"}"] = val
		}
	}
	for n, h := range r.hists {
		s.Histograms[n] = r.filterExemplars(h.Snapshot())
	}
	for n, v := range r.hvecs {
		for key, hs := range v.snapshot() {
			s.Histograms[n+"{"+key+"}"] = r.filterExemplars(hs)
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Load()
		}
	}
	return s
}

// StageTimings records the wall-clock time one optimization spent in each
// pipeline stage. It is the span-level breakdown behind Figure 9's latency
// totals: vectorization, singleton enumeration, the cartesian merges (the
// assignment pass of each concatenation and the materialization of its
// survivors), the pruning (dominated by model calls, and merging the
// feature rows the model scores), and the final unvectorization.
type StageTimings struct {
	Vectorize   time.Duration
	Enumerate   time.Duration
	Merge       time.Duration
	Prune       time.Duration
	Unvectorize time.Duration

	// Infer is the wall-clock time spent inside batched model inference
	// (merging each scoring block's feature rows included). It is a
	// sub-span, not a stage: inference runs inside the prune stage and the
	// final plan selection, so Infer is excluded from Total() to keep the
	// stages additive.
	Infer time.Duration
}

// Add accumulates o into t.
func (t *StageTimings) Add(o StageTimings) {
	t.Vectorize += o.Vectorize
	t.Enumerate += o.Enumerate
	t.Merge += o.Merge
	t.Prune += o.Prune
	t.Unvectorize += o.Unvectorize
	t.Infer += o.Infer
}

// Total returns the sum over all pipeline stages (Infer overlaps them and
// is not added).
func (t StageTimings) Total() time.Duration {
	return t.Vectorize + t.Enumerate + t.Merge + t.Prune + t.Unvectorize
}

// Annotate attaches the non-zero stage timings to s as per-stage
// millisecond attributes ("mergeMs", "pruneMs", ...). Nil-safe through the
// span's own setters, so callers can annotate unconditionally.
func (t StageTimings) Annotate(s *Span) {
	set := func(key string, d time.Duration) {
		if d > 0 {
			s.SetFloat(key, float64(d.Microseconds())/1000)
		}
	}
	set("vectorizeMs", t.Vectorize)
	set("enumerateMs", t.Enumerate)
	set("mergeMs", t.Merge)
	set("pruneMs", t.Prune)
	set("unvectorizeMs", t.Unvectorize)
	set("inferMs", t.Infer)
}

// Milliseconds renders the timings as a stage→ms map for JSON replies.
func (t StageTimings) Milliseconds() map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return map[string]float64{
		"vectorize":   ms(t.Vectorize),
		"enumerate":   ms(t.Enumerate),
		"merge":       ms(t.Merge),
		"prune":       ms(t.Prune),
		"unvectorize": ms(t.Unvectorize),
		"infer":       ms(t.Infer),
	}
}
