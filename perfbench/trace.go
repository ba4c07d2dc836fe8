package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simulator"
)

// servedModel is the method set of the trained ensemble. The timing
// wrapper exposes exactly this set, so the enumeration takes the same
// batched and distributional paths with and without it.
type servedModel interface {
	mlmodel.BatchModel
	mlmodel.DistModel
	mlmodel.BatchDistModel
}

// ambient says where inference spans go: under which open span, of which
// request, and under what name. The replay sets it around each call that
// may reach the model; a negative parent records nothing.
type ambient struct {
	parent, req int
	name        string
}

// timedModel records one span per model call, including the single-row
// distributional calls the enumeration makes after selecting a plan.
type timedModel struct {
	inner servedModel
	rec   *recorder
	at    atomic.Pointer[ambient]
}

func (t *timedModel) begin() (*ambient, int) {
	a := t.at.Load()
	if a == nil || a.parent < 0 {
		return nil, -1
	}
	return a, t.rec.start(a.name, a.parent, a.req)
}

func (t *timedModel) Predict(x []float64) float64 {
	_, id := t.begin()
	v := t.inner.Predict(x)
	t.rec.end(id, 1)
	return v
}

func (t *timedModel) PredictBatch(X *mlmodel.Matrix, out []float64) {
	_, id := t.begin()
	t.inner.PredictBatch(X, out)
	t.rec.end(id, X.Rows)
}

func (t *timedModel) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	_, id := t.begin()
	mean, spread, lo, hi = t.inner.PredictDist(x)
	t.rec.end(id, 1)
	return
}

func (t *timedModel) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	_, id := t.begin()
	t.inner.PredictBatchDist(X, mean, spread, lo, hi)
	t.rec.end(id, X.Rows)
}

// newServer assembles an in-process service.Server the way roboptd does
// with its default flags, serving model under the given version, and
// returns its handler.
func newServer(m mlmodel.Model, version string, plats []platform.ID, avail *platform.Availability) (http.Handler, error) {
	logger, err := obs.NewLogger(io.Discard, "info", "text", "roboptd")
	if err != nil {
		return nil, err
	}
	provider := registry.StaticProvider(m, version)
	srv := &service.Server{
		Provider:        provider,
		Feedback:        registry.NewFeedback(registry.DefaultFeedbackCap),
		Platforms:       plats,
		Avail:           avail,
		Cluster:         simulator.Default(),
		DefaultDeadline: 30 * time.Second,
		MaxBodyBytes:    service.DefaultMaxBodyBytes,
		MaxBatchMembers: service.DefaultMaxBatchMembers,
		Tracer:          obs.NewTracer(obs.DefaultTraceCap, 0.1, time.Second),
		Logger:          logger,
		SLO:             obs.NewSLO(500, 0.99),
		ReplicaID:       "perfbench",
		Admission:       &service.Admission{ShedFraction: service.DefaultShedFraction},
	}
	srv.PlanCache = newPlanCache(srv.Metrics())
	srv.PlanCache.Activate(provider.Get().Version())
	return srv.Handler(), nil
}

// newPlanCache is a plan cache with roboptd's default capacity and TTL.
func newPlanCache(m *obs.Registry) *plancache.Cache {
	return plancache.New(plancache.Config{
		MaxEntries: plancache.DefaultMaxEntries,
		MaxBytes:   plancache.DefaultMaxBytes,
		TTL:        10 * time.Minute,
		Metrics:    m,
	})
}

// serve runs one request through a handler in process and returns its wall
// time and response.
func serve(h http.Handler, it *item) (time.Duration, *httptest.ResponseRecorder) {
	target := "/optimize"
	if it.lambda != 0 {
		target += "?risk_lambda=" + strconv.FormatFloat(it.lambda, 'g', -1, 64)
	}
	req := httptest.NewRequest("POST", target, bytes.NewReader(it.body))
	rw := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rw, req)
	return time.Since(t0), rw
}

// chain calls the request path's layers one by one through their public
// functions, with its own plan cache, mirroring what the handler does for
// a request: decode, build the optimizer context, fingerprint, look up the
// cache, then rematerialize a hit or enumerate a miss, and encode the
// response.
type chain struct {
	plats   []platform.ID
	avail   *platform.Availability
	version string
	cache   *plancache.Cache
	model   *timedModel
	rec     *recorder // nil while warming up
	// stats of the enumerations the chain ran while recording, and how
	// many of them were risk-aware.
	plans     []core.Stats
	riskPlans int
	hits      int
}

// run handles one item under root span root of request req. resp is the
// handler's response for the same request, which the encode layer encodes.
func (c *chain) run(root, req int, it *item, resp *service.OptimizeResponse) error {
	rec := c.rec
	sp := rec.start("plan.decode", root, req)
	l, err := plan.UnmarshalJSONPlan(bytes.NewReader(it.body))
	rec.end(sp, 0)
	if err != nil {
		return err
	}

	sp = rec.start("core.context", root, req)
	cctx, err := core.NewContext(l, c.plats, c.avail)
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	cctx.Workers = core.ResolveWorkers(0)
	cctx.Budget = core.Budget{SoftDeadline: 24 * time.Second}
	if it.lambda != 0 {
		cctx.Risk = core.Risk{Lambda: it.lambda, KeepOverlap: true}
	}

	sp = rec.start("plancache.fingerprint", root, req)
	fp, canon, err := plancache.Compute(l, c.plats, c.avail, c.cache.BandsPerDecade())
	rec.end(sp, 0)
	if err != nil {
		return err
	}

	band := plancache.RiskBand(it.lambda)
	sp = rec.start("plancache.get", root, req)
	cp, hit := c.cache.GetBand(fp, c.version, band)
	rec.end(sp, 0)

	var x *plan.Execution
	if hit {
		c.hits++
		sp = rec.start("plancache.materialize", root, req)
		x, err = cp.Materialize(l, canon, c.plats)
		rec.end(sp, 0)
		if err != nil {
			return err
		}
	} else {
		sp = rec.start("core.enumerate", root, req)
		c.model.at.Store(&ambient{parent: sp, req: req, name: "mlmodel.infer"})
		res, err := cctx.Optimize(context.Background(), c.model)
		c.model.at.Store(nil)
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		if rec != nil {
			c.plans = append(c.plans, res.Stats)
			if it.lambda != 0 {
				c.riskPlans++
			}
		}
		if ncp, err := plancache.FromResult(fp, canon, c.version, res); err == nil && !res.Degraded {
			c.cache.Put(ncp)
		}
		x = res.Execution
	}

	sp = rec.start("service.encode", root, req)
	err = json.NewEncoder(io.Discard).Encode(resp)
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	var assign []string
	for _, p := range x.Assign {
		assign = append(assign, p.String())
	}
	var conv []service.ConversionJSON
	for _, cv := range x.Conversions {
		conv = append(conv, service.ConversionJSON{Name: cv.Name(), AfterOp: int(cv.AfterOp), BeforeOp: int(cv.BeforeOp), Tuples: cv.Card})
	}
	if !it.ref.matches(assign, conv) {
		return fmt.Errorf("layer-by-layer answer differs from the reference")
	}
	return nil
}

// replayOut is what the traced replay adds to a run's result.
type replayOut struct {
	attempted, failed    int
	untracedHandlerP50us float64
	report               map[string]any
}

// maxReplay caps the requests one traced replay records.
const maxReplay = 4096

// tracedReplay replays the workload's request sequence in process for about
// budget. Each request runs three times on identical state: through an
// untraced server's handler (the tracing-overhead baseline), through a
// second server's handler under a "service.handler" span whose model calls
// are spans too, and through the layer chain with one span per layer call.
// The spans are written to spanPath; the per-layer metrics come back.
func tracedReplay(w *plannedWorkload, art *registry.Artifact, plats []platform.ID, avail *platform.Availability, budget time.Duration, spanPath string) (map[string]metric, *replayOut, error) {
	inner, ok := art.Model.(servedModel)
	if !ok {
		return nil, nil, fmt.Errorf("served model %T lacks the batched/distributional methods", art.Model)
	}
	rec := newRecorder()
	tm := &timedModel{inner: inner, rec: rec}
	version := art.Version
	plain, err := newServer(art.Model, version, plats, avail)
	if err != nil {
		return nil, nil, err
	}
	traced, err := newServer(tm, version, plats, avail)
	if err != nil {
		return nil, nil, err
	}
	ch := &chain{plats: plats, avail: avail, version: version, cache: newPlanCache(nil), model: tm}
	ch.cache.Activate(ch.version)

	out := &replayOut{}
	check := func(rw *httptest.ResponseRecorder, it *item) (*service.OptimizeResponse, bool) {
		out.attempted++
		if rw.Code != 200 || checkReply(rw.Body.Bytes(), &it.ref) != "" {
			out.failed++
			return nil, false
		}
		var resp service.OptimizeResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
			out.failed++
			return nil, false
		}
		return &resp, true
	}

	// Warm all three paths with the workload's warm-up items, unrecorded.
	for _, i := range w.warm {
		it := &w.items[i]
		_, rw := serve(plain, it)
		check(rw, it)
		_, rw = serve(traced, it)
		resp, ok := check(rw, it)
		if ok {
			if err := ch.run(-1, -1, it, resp); err != nil {
				return nil, nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}

	ch.rec = rec
	var untraced []float64
	var untracedTotal time.Duration
	start := time.Now()
	n := 0
	for ; n < maxReplay && time.Since(start) < budget; n++ {
		if n >= len(w.seq) && !w.cycle {
			break
		}
		it := &w.items[w.seq[n%len(w.seq)]]
		runPlain := func() {
			d, rw := serve(plain, it)
			check(rw, it)
			untraced = append(untraced, float64(d.Microseconds()))
			untracedTotal += d
		}
		// Alternate which handler goes first, so neither always finds the
		// request's data warm in the CPU caches.
		if n%2 == 0 {
			runPlain()
		}
		root := rec.start("request", -1, n)
		h := rec.start("service.handler", root, n)
		tm.at.Store(&ambient{parent: h, req: n, name: "service.handler.infer"})
		_, rw := serve(traced, it)
		tm.at.Store(nil)
		rec.end(h, 0)
		if resp, ok := check(rw, it); ok {
			out.attempted++
			if err := ch.run(root, n, it, resp); err != nil {
				out.failed++
			}
		}
		rec.end(root, 0)
		if n%2 == 1 {
			runPlain()
		}
	}
	spans := rec.snapshot()
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, nil, err
	}
	out.untracedHandlerP50us = median(untraced)
	lt := aggregate(spans)
	layers := layerMetrics(lt, ch, n)
	tracedTotal := lt.total["service.handler"]
	layers["trace.overhead_ratio"] = metric{fraction(float64(tracedTotal-untracedTotal), float64(untracedTotal)), "ratio"}
	out.report = map[string]any{
		"requests":        n,
		"enumerations":    len(ch.plans),
		"spans":           len(spans),
		"span_file":       spanPath,
		"untraced_p50_us": out.untracedHandlerP50us,
	}
	return layers, out, nil
}

// layerMetrics turns aggregated spans and the chain's enumeration stats
// into per-layer metrics. Layer times are means per replayed request, so
// they add up to the handler time with service.other_us; "_per_plan"
// figures are means per enumerated plan.
func layerMetrics(lt layerTimes, ch *chain, requests int) map[string]metric {
	perReq := func(d time.Duration, unit time.Duration) float64 {
		return fraction(float64(d)/float64(unit), float64(requests))
	}
	us := func(name string) float64 { return perReq(lt.self[name], time.Microsecond) }
	m := map[string]metric{}
	parts := []string{"plan.decode", "core.context", "plancache.fingerprint", "plancache.get", "plancache.materialize", "service.encode"}
	accounted := 0.0
	for _, name := range parts {
		v := us(name)
		accounted += v
		m[name+"_us"] = metric{v, "us"}
	}
	enumerate := perReq(lt.total["core.enumerate"], time.Microsecond)
	accounted += enumerate
	handler := perReq(lt.total["service.handler"], time.Microsecond)
	m["service.handler_us"] = metric{handler, "us"}
	m["service.other_us"] = metric{handler - accounted, "us"}
	m["core.enumerate_ms"] = metric{enumerate / 1000, "ms"}
	m["core.enumerate_self_ms"] = metric{perReq(lt.self["core.enumerate"], time.Millisecond), "ms"}
	m["plancache.hit_ratio"] = metric{fraction(float64(ch.hits), float64(requests)), "ratio"}

	plans := float64(len(ch.plans))
	var sum core.Stats
	var stages obs.StageTimings
	for _, s := range ch.plans {
		sum.VectorsCreated += s.VectorsCreated
		sum.Merges += s.Merges
		sum.Pruned += s.Pruned
		sum.MemoHits += s.MemoHits
		sum.ModelRows += s.ModelRows
		sum.IntervalKept += s.IntervalKept
		stages.Add(s.Timings)
	}
	perPlan := func(v float64) float64 { return fraction(v, plans) }
	stageMs := func(d time.Duration) float64 { return perPlan(float64(d) / float64(time.Millisecond)) }
	m["core.stage_vectorize_ms"] = metric{stageMs(stages.Vectorize), "ms"}
	m["core.stage_enumerate_ms"] = metric{stageMs(stages.Enumerate), "ms"}
	m["core.stage_merge_ms"] = metric{stageMs(stages.Merge), "ms"}
	m["core.stage_prune_ms"] = metric{stageMs(stages.Prune), "ms"}
	m["core.stage_unvectorize_ms"] = metric{stageMs(stages.Unvectorize), "ms"}
	m["core.vectors_per_plan"] = metric{perPlan(float64(sum.VectorsCreated)), "count"}
	m["core.merges_per_plan"] = metric{perPlan(float64(sum.Merges)), "count"}
	m["core.pruned_per_plan"] = metric{perPlan(float64(sum.Pruned)), "count"}
	m["core.memo_hit_ratio"] = metric{fraction(float64(sum.MemoHits), float64(sum.ModelRows+sum.MemoHits)), "ratio"}
	// Overlap pruning only runs at λ > 0, so its survivors are counted per
	// risk-aware plan.
	m["core.interval_kept_per_plan"] = metric{fraction(float64(sum.IntervalKept), float64(ch.riskPlans)), "count"}

	inferNs := float64(lt.total["mlmodel.infer"])
	rows := float64(lt.rows["mlmodel.infer"])
	m["mlmodel.rows_per_plan"] = metric{perPlan(rows), "count"}
	m["mlmodel.batches_per_plan"] = metric{perPlan(float64(lt.count["mlmodel.infer"])), "count"}
	m["mlmodel.infer_ns_per_row"] = metric{fraction(inferNs, rows), "ns"}
	m["mlmodel.infer_ms_per_plan"] = metric{perPlan(inferNs / 1e6), "ms"}
	return m
}
