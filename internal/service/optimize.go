package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
)

// optimizeReq is one request unit flowing through the cache → singleflight
// → optimize layers, independent of its HTTP transport so POST /optimize
// and each POST /optimize/batch member share one path.
type optimizeReq struct {
	id        string
	l         *plan.Logical
	start     time.Time
	deadline  time.Duration
	lambda    float64
	simulate  bool
	wantTrace bool
	nocache   bool
	// nopeer bypasses the fleet-shared cache tier (peer fill and fleet
	// singleflight) for this request, mirroring what nocache does for the
	// local cache.
	nopeer bool
	// peerMs is the time spent fetching the served entry from the fleet
	// tier, set only when the request was peer-filled; cachedOut observes
	// it into peer_fill_ms{outcome="hit"} with the retained trace as the
	// exemplar.
	peerMs float64
	// endpoint labels the serving metrics ("optimize" or "batch").
	endpoint string
	// traceID is the W3C trace ID propagated by the caller's traceparent
	// header; empty means the request ID doubles as the trace ID.
	traceID string
	// remoteSampled mirrors the traceparent sampled flag: the caller asked
	// for this trace to be kept, so retention is forced like ?trace=1.
	remoteSampled bool
	// trace/parent carry the shared batch trace and this member's parent
	// span when the request is one member of a batch: the member records
	// its spans into the batch's tree and must not finish the trace itself.
	trace  *obs.Trace
	parent *obs.Span
	// shed admits the request in load-shedding mode: the enumeration starts
	// already degraded (core.Budget.ForceDegraded) and serves the beam.
	shed bool
	// workers overrides the server's enumeration parallelism when positive
	// (batch members share the pool across the fan-out).
	workers int
	// fp/canon carry a precomputed fingerprint when fpDone is set (the
	// batch path fingerprints members up front for its dedup sweep); a nil
	// canon with fpDone means fingerprinting failed and the cache is
	// bypassed.
	fp     plancache.Fingerprint
	canon  *plancache.Canon
	fpDone bool
}

// optimizeOut is the outcome of one request unit: either resp (with the
// X-Cache disposition and, for full runs, the cacheable plan the batch
// dedup layer can rematerialize for duplicate members) or err with its
// HTTP status.
type optimizeOut struct {
	resp   OptimizeResponse
	cache  string // X-Cache value: "", "hit", "collapsed", "miss", "dedup" or "peer"
	cp     *plancache.CachedPlan
	status int
	err    error
}

// deadline resolves the effective deadline of a request: ?deadline_ms= wins
// over the server default. A malformed or non-positive value is an error.
func (s *Server) deadline(r *http.Request) (time.Duration, error) {
	q := r.URL.Query().Get("deadline_ms")
	if q == "" {
		return s.DefaultDeadline, nil
	}
	ms, err := strconv.Atoi(q)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("service: deadline_ms must be a positive integer, got %q", q)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// riskLambda resolves the request's risk-aversion weight from ?risk_lambda=.
// A malformed, negative or non-finite value is an error.
func riskLambda(r *http.Request) (float64, error) {
	q := r.URL.Query().Get("risk_lambda")
	if q == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(q, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("service: risk_lambda must be a finite non-negative number, got %q", q)
	}
	return v, nil
}

// traceContext reads the request's W3C traceparent header. A malformed
// header is ignored (the request gets a local trace ID); a valid one makes
// the remote trace ID the serving trace's ID — retrievable later via
// /tracez?id=<traceID> — and echoes the header on the response so the
// caller sees its context was honored.
func traceContext(w http.ResponseWriter, r *http.Request) (traceID string, sampled bool) {
	tp, ok := obs.ParseTraceParent(r.Header.Get("traceparent"))
	if !ok {
		return "", false
	}
	w.Header().Set("traceparent", tp.String())
	return tp.TraceID, tp.Sampled
}

// traceIDOf returns tr's ID, or "" for an untraced run.
func traceIDOf(tr *obs.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.ID
}

// finishTrace closes one request unit's trace. Members of a shared batch
// trace skip it — the batch handler finishes that trace exactly once, with
// the whole fan-out recorded. Returns whether the trace entered the
// retention ring, which gates exemplar exposure: only resolvable trace IDs
// are attached to histogram buckets.
func (s *Server) finishTrace(q *optimizeReq, tr *obs.Trace, notable string) bool {
	if q.trace != nil {
		return false
	}
	return s.Tracer.Finish(tr, q.wantTrace || q.remoteSampled, notable)
}

// countServing feeds one request unit's outcome into the labeled serving
// metrics and the SLO tracker: serving_requests_total partitioned by
// endpoint/outcome/cache disposition, serving_latency_ms by endpoint (with
// the retained trace as the bucket's exemplar), and the SLO's good/bad
// tally (shed responses are successes — degraded quality, not an error).
func (s *Server) countServing(endpoint, outcome, cache string, latencyMs float64, exemplarTrace string) {
	if cache == "" {
		cache = "none"
	}
	m := s.Metrics()
	m.CounterVec("serving_requests_total", "endpoint", "outcome", "cache").With(endpoint, outcome, cache).Inc()
	m.HistogramVec("serving_latency_ms", "endpoint").With(endpoint).ObserveExemplar(latencyMs, exemplarTrace)
	s.SLO.Record(latencyMs, outcome == "ok" || outcome == "shed")
}

// sinceMs is the elapsed wall-clock in milliseconds.
func sinceMs(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// admit runs the admission layer for one request unit (a single request or
// a whole batch). ok=false means the request was refused and the response
// is already written; otherwise the caller must invoke release (when
// non-nil) once the unit finishes, and shed tells it to serve the degraded
// beam.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, endpoint, reqID string, start time.Time) (shed bool, release func(), ok bool) {
	if s.Admission == nil {
		return false, nil, true
	}
	outcome, rel := s.Admission.Acquire(ctx)
	switch outcome {
	case admitRejected:
		s.mu.Lock()
		s.stats.Rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", s.Admission.retryAfterSeconds())
		err := errors.New("service: admission queue full, retry later")
		s.fail(w, reqID, http.StatusTooManyRequests, err)
		s.logOptimize(reqID, http.StatusTooManyRequests, start, "", false, err)
		s.countServing(endpoint, "429", "", sinceMs(start), "")
		return false, nil, false
	case admitCanceled:
		s.mu.Lock()
		s.stats.DeadlineExceeded++
		s.mu.Unlock()
		s.Metrics().Counter("deadline_exceeded_total").Inc()
		err := fmt.Errorf("service: request expired in the admission queue: %w", ctx.Err())
		s.fail(w, reqID, http.StatusServiceUnavailable, err)
		s.logOptimize(reqID, http.StatusServiceUnavailable, start, "", false, err)
		s.countServing(endpoint, "503", "", sinceMs(start), "")
		return false, nil, false
	case admitShed:
		return true, rel, true
	default:
		return false, rel, true
	}
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextReqID()
	w.Header().Set("X-Request-Id", reqID)
	if r.Method != http.MethodPost {
		s.fail(w, reqID, http.StatusMethodNotAllowed, errors.New("POST a JSON logical plan"))
		return
	}
	start := time.Now()
	deadline, err := s.deadline(r)
	if err != nil {
		s.fail(w, reqID, http.StatusBadRequest, err)
		return
	}
	lambda, err := riskLambda(r)
	if err != nil {
		s.fail(w, reqID, http.StatusBadRequest, err)
		return
	}
	l, err := plan.UnmarshalJSONPlan(http.MaxBytesReader(w, r.Body, s.maxBody()))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.fail(w, reqID, code, err)
		return
	}

	// The deadline context is created before admission so time spent in the
	// queue counts against the request's deadline — a queued request whose
	// deadline lapses is dequeued as canceled, not optimized late.
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	traceID, remoteSampled := traceContext(w, r)
	shed, release, ok := s.admit(ctx, w, "optimize", reqID, start)
	if !ok {
		return
	}
	if release != nil {
		defer release()
	}

	out := s.runOptimize(ctx, &optimizeReq{
		id:            reqID,
		l:             l,
		start:         start,
		deadline:      deadline,
		lambda:        lambda,
		simulate:      r.URL.Query().Get("simulate") == "1",
		wantTrace:     r.URL.Query().Get("trace") == "1",
		nocache:       r.URL.Query().Get("nocache") == "1",
		nopeer:        r.URL.Query().Get("nopeer") == "1",
		shed:          shed,
		endpoint:      "optimize",
		traceID:       traceID,
		remoteSampled: remoteSampled,
	})
	if out.err != nil {
		s.fail(w, reqID, out.status, out.err)
		return
	}
	s.writeResponse(w, out)
}

// runOptimize carries one request unit through the cache, singleflight and
// optimize layers. It does all success/failure accounting except the
// HTTP-level failure counting that fail performs; transport handlers only
// write the outcome.
func (s *Server) runOptimize(ctx context.Context, q *optimizeReq) *optimizeOut {
	cctx, err := core.NewContext(q.l, s.Platforms, s.Avail)
	if err != nil {
		return &optimizeOut{status: http.StatusBadRequest, err: err}
	}
	cctx.Workers = q.workers
	if cctx.Workers <= 0 {
		cctx.Workers = s.workers()
	}
	budget := s.Budget
	if budget.SoftDeadline == 0 && q.deadline > 0 {
		// Degrade at 80% of the deadline so the request has slack to
		// finish its best-effort plan before the hard cutoff.
		budget.SoftDeadline = q.deadline * 4 / 5
	}
	if q.shed {
		// Load-shedding admission: skip straight to the degraded beam.
		budget.ForceDegraded = true
	}
	cctx.Budget = budget
	if q.lambda != 0 {
		// Risk-aware request: λ-adjusted scoring plus overlap pruning, so
		// near-ties the model cannot separate survive to the final selection.
		cctx.Risk = core.Risk{Lambda: q.lambda, KeepOverlap: true}
	}

	// Fingerprint the plan up front when a cache is configured: the
	// canonical hash is a few microseconds against the enumeration's
	// milliseconds. ?nocache=1 is the per-request escape hatch, and a plan
	// the fingerprinter rejects simply bypasses the cache.
	useCache := s.PlanCache != nil && !q.nocache
	fp, canon := q.fp, q.canon
	if useCache && canon == nil {
		if q.fpDone {
			useCache = false
		} else if cfp, ccanon, fpErr := plancache.Compute(q.l, s.Platforms, s.Avail, s.PlanCache.BandsPerDecade()); fpErr == nil {
			fp, canon = cfp, ccanon
		} else {
			useCache = false
		}
	}

	// The request ID doubles as the trace ID unless the caller propagated a
	// W3C traceparent, in which case the remote trace ID names the trace
	// (retrievable via /tracez?id=<remote id>) and RequestID keeps the local
	// join key. A configured tracer records every request and decides
	// retention at the end (tail-based sampling); ?trace=1 and a sampled
	// traceparent additionally force retention. Without a tracer, ?trace=1
	// still gets a one-shot trace that lives only in this response. Batch
	// members record into the shared batch trace instead, each under its own
	// "member" span.
	var tr *obs.Trace
	if q.trace != nil {
		tr = q.trace
		member := tr.StartSpan(q.parent, "member")
		member.SetStr("requestId", q.id)
		defer member.End()
		q.parent = member
		cctx.TraceParent = member
	} else {
		tid := q.id
		if q.traceID != "" {
			tid = q.traceID
		}
		tr = s.Tracer.Start(tid)
		if tr == nil && (q.wantTrace || q.remoteSampled) {
			tr = obs.NewTrace(tid)
		}
		if tr != nil && q.traceID != "" {
			tr.RequestID = q.id
		}
	}
	cctx.Trace = tr

	// Resolve one immutable snapshot for the whole request: concurrent
	// hot-swaps affect later requests, never this one, and the response's
	// modelVersion is exactly the model that scored the plan.
	p := s.provider()
	if p == nil {
		err := errors.New("service: no model configured")
		tr.SetError(err.Error())
		s.finishTrace(q, tr, "")
		s.logOptimize(q.id, http.StatusServiceUnavailable, q.start, "", false, err)
		s.countServing(q.endpoint, "503", "", sinceMs(q.start), "")
		return &optimizeOut{status: http.StatusServiceUnavailable, err: err}
	}
	snap := p.Get()
	riskBand := plancache.RiskBand(q.lambda)
	if useCache {
		if cp, ok := s.PlanCache.GetBand(fp, snap.Version(), riskBand); ok {
			if out, ok := s.cachedOut(q, cp, canon, snap.Version(), tr, "hit"); ok {
				return out
			}
			// A cached assignment that fails to materialize against this
			// plan (a banding artifact) falls through to the full run.
		}
	}

	var res *core.Result
	var leaderCP *plancache.CachedPlan
	if useCache && !q.shed {
		// Singleflight: concurrent identical (fingerprint, version)
		// requests run one enumeration. The leader optimizes under its own
		// ctx and publishes the result; followers wait under theirs and
		// serve the shared plan as "collapsed". Shed requests bypass this
		// layer: their degraded beam must not be published to followers
		// expecting a full-quality plan.
		var cp *plancache.CachedPlan
		var followed, peerServed bool
		cp, followed, err = s.PlanCache.DoBand(ctx, fp, snap.Version(), riskBand, func() (*plancache.CachedPlan, error) {
			// Fleet-shared tier, entered only by the process-local
			// singleflight leader: first ask a peer for its entry, then —
			// still cold fleet-wide — claim the key in the shared store so
			// exactly one replica runs the enumeration while the others
			// wait on the claimant. Every branch degrades to the local
			// enumeration below; a sick fleet slows a request by bounded
			// timeouts at worst, it never wedges one.
			if s.peerFillEnabled(q) {
				fstart := time.Now()
				if pcp, ok := s.PlanCache.FillRemote(ctx, fp, snap.Version(), riskBand); ok {
					q.peerMs = sinceMs(fstart)
					peerServed = true
					return pcp, nil
				}
				s.Metrics().HistogramVec("peer_fill_ms", "outcome").With("miss").Observe(sinceMs(fstart))
				pcp, release := s.claimOrWait(ctx, fp, snap.Version(), riskBand)
				if pcp != nil {
					q.peerMs = sinceMs(fstart)
					peerServed = true
					return pcp, nil
				}
				if release != nil {
					// We hold the fleet claim: release it only after the
					// enumeration result is published to the local cache,
					// so a waiter observing the release always finds the
					// entry (or learns the run failed and contends anew).
					defer release()
				}
			}
			lr, lerr := cctx.OptimizeProvider(ctx, snap)
			if lerr != nil {
				return nil, lerr
			}
			res = lr
			ncp, cerr := plancache.FromResult(fp, canon, snap.Version(), lr)
			if cerr != nil {
				// Still a successful optimization: serve it, cache nothing.
				return nil, nil
			}
			ncp.TraceID = traceIDOf(tr)
			// Degraded plans are budget artifacts of one moment, not the
			// enumeration optimum — never cache them.
			if !lr.Degraded {
				s.PlanCache.Put(ncp)
			}
			return ncp, nil
		})
		if followed && err == nil {
			if cp != nil {
				if out, ok := s.cachedOut(q, cp, canon, snap.Version(), tr, "collapsed"); ok {
					return out
				}
			}
			// The leader's result does not fit this request's plan; run
			// the enumeration ourselves.
			res, err = cctx.OptimizeProvider(ctx, snap)
		} else if err == nil && peerServed && cp != nil {
			if out, ok := s.cachedOut(q, cp, canon, snap.Version(), tr, "peer"); ok {
				return out
			}
			// The peer's plan does not fit this request (a cross-plan
			// banding artifact); run the enumeration ourselves.
			res, err = cctx.OptimizeProvider(ctx, snap)
		} else if err == nil {
			leaderCP = cp
		}
	} else {
		res, err = cctx.OptimizeProvider(ctx, snap)
		if err == nil && useCache && canon != nil {
			if ncp, cerr := plancache.FromResult(fp, canon, snap.Version(), res); cerr == nil {
				ncp.TraceID = traceIDOf(tr)
				leaderCP = ncp
				if !res.Degraded {
					s.PlanCache.Put(ncp)
				}
			}
		}
	}
	if err != nil {
		tr.SetError(err.Error())
		s.finishTrace(q, tr, "")
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.mu.Lock()
			s.stats.DeadlineExceeded++
			s.mu.Unlock()
			s.Metrics().Counter("deadline_exceeded_total").Inc()
			err = fmt.Errorf("service: optimization exceeded its deadline of %v: %w", q.deadline, err)
			s.logOptimize(q.id, http.StatusServiceUnavailable, q.start, snap.Version(), false, err)
			s.countServing(q.endpoint, "503", "", sinceMs(q.start), "")
			return &optimizeOut{status: http.StatusServiceUnavailable, err: err}
		}
		s.logOptimize(q.id, http.StatusUnprocessableEntity, q.start, snap.Version(), false, err)
		s.countServing(q.endpoint, "422", "", sinceMs(q.start), "")
		return &optimizeOut{status: http.StatusUnprocessableEntity, err: err}
	}
	notable := ""
	if res.Degraded {
		notable = "degraded"
	}
	retained := s.finishTrace(q, tr, notable)
	resp := OptimizeResponse{
		RequestID:           q.id,
		ModelVersion:        snap.Version(),
		PredictedRuntimeSec: res.Predicted,
		PredictedLoSec:      res.PredictedDist.Lo,
		PredictedHiSec:      res.PredictedDist.Hi,
		PredictedSpreadSec:  res.PredictedDist.Spread,
		RiskLambda:          q.lambda,
		Degraded:            res.Degraded,
		DegradeReason:       res.Stats.DegradeReason,
		Stats: StatsJSON{
			VectorsCreated: res.Stats.VectorsCreated,
			Merges:         res.Stats.Merges,
			ModelBatches:   res.Stats.ModelBatches,
			ModelRows:      res.Stats.ModelRows,
			MemoHits:       res.Stats.MemoHits,
			Pruned:         res.Stats.Pruned,
			IntervalKept:   res.Stats.IntervalKept,
			PeakEnumSize:   res.Stats.PeakEnumSize,
			PoolRounds:     res.Stats.Par.Rounds,
			PoolTasks:      res.Stats.Par.Tasks,
			PoolSteals:     res.Stats.Par.Steals,
			PoolQueueDepth: res.Stats.Par.MaxQueueDepth,
		},
		StageMs:        res.Stats.Timings.Milliseconds(),
		OptimizationMs: float64(time.Since(q.start).Microseconds()) / 1000,
		TraceID:        traceIDOf(tr),
	}
	if q.wantTrace {
		res.Trace.ScoreContributions()
		resp.Trace = res.Trace
	}
	for _, p := range res.Execution.Assign {
		resp.Assignments = append(resp.Assignments, p.String())
	}
	for _, conv := range res.Execution.Conversions {
		resp.Conversions = append(resp.Conversions, ConversionJSON{
			Name:     conv.Name(),
			AfterOp:  int(conv.AfterOp),
			BeforeOp: int(conv.BeforeOp),
			Tuples:   conv.Card,
		})
	}
	if q.simulate && s.Cluster != nil {
		run := s.Cluster.Run(res.Execution)
		resp.SimulatedRuntimeSec = run.Runtime
		resp.SimulatedLabel = run.Label()
		// Execution feedback: the chosen plan's vector paired with its
		// observed runtime feeds the retraining loop, tagged with the
		// model's predictive spread so retraining can prioritize the plans
		// the model was least certain about. Failed runs carry no usable
		// runtime label and are skipped.
		if s.Feedback != nil && res.Vector != nil && !run.Failed() {
			if err := s.Feedback.AddWithSpread(res.Vector.F, run.Runtime, res.PredictedDist.Spread); err != nil {
				s.Metrics().Counter("feedback_rejected_total").Inc()
			} else {
				s.Metrics().Counter("feedback_samples_total").Inc()
			}
		}
	}

	s.mu.Lock()
	s.stats.Requests++
	s.stats.TotalMs += resp.OptimizationMs
	if res.Degraded {
		s.stats.Degraded++
	}
	if q.shed {
		s.stats.Shed++
	}
	s.mu.Unlock()
	s.record(resp, res)
	outcome := "ok"
	if q.shed {
		outcome = "shed"
		s.Metrics().Counter("shed_total").Inc()
	}
	exemplar := ""
	if retained {
		exemplar = traceIDOf(tr)
	}
	cacheDisp := ""
	if useCache {
		cacheDisp = "miss"
	}
	s.countServing(q.endpoint, outcome, cacheDisp, resp.OptimizationMs, exemplar)
	if s.Logger != nil {
		s.Logger.Info("optimize",
			"requestId", q.id,
			"status", http.StatusOK,
			"ms", resp.OptimizationMs,
			"modelVersion", resp.ModelVersion,
			"degraded", res.Degraded,
			"shed", q.shed,
			"traced", tr != nil,
			"predictedSec", res.Predicted)
	}

	out := &optimizeOut{resp: resp, cp: leaderCP}
	if useCache {
		out.cache = "miss"
	}
	return out
}

// cachedOut builds the response for a request unit served without its own
// enumeration: from the plan cache (how = "hit"), from a collapsed
// concurrent run (how = "collapsed"), from a duplicate batch member's run
// (how = "dedup") or from a peer replica's cache over the fleet-shared
// tier (how = "peer"). The cached canonical assignment is rematerialized
// against this request's plan, so conversions and their cardinalities come
// from the plan itself, byte-identical to the uncached path. Stats are zero
// — no enumeration work happened. Returns ok=false when the cached plan
// does not fit the request's plan (a cross-plan banding artifact); the
// caller then runs the full optimization.
func (s *Server) cachedOut(q *optimizeReq, cp *plancache.CachedPlan, canon *plancache.Canon, version string, tr *obs.Trace, how string) (*optimizeOut, bool) {
	x, err := cp.Materialize(q.l, canon, s.Platforms)
	if err != nil {
		return nil, false
	}
	// A cache hit is a one-span trace: the lookup is the whole story — no
	// vectorize/enumerate/prune spans, because none of that ran. The trace
	// links the run that produced the cached plan (when that run was
	// traced), so the enumeration spans are one /tracez?id= away.
	sp := tr.StartSpan(q.parent, "cache")
	sp.SetStr("result", how)
	sp.SetStr("fingerprint", cp.Fingerprint.Short())
	sp.SetStr("modelVersion", cp.ModelVersion)
	sp.SetFloat("age_ms", float64(time.Since(cp.CachedAt).Microseconds())/1000)
	sp.End()
	if cp.TraceID != "" && cp.TraceID != traceIDOf(tr) {
		linkReason := "cache-origin"
		switch how {
		case "collapsed":
			linkReason = "singleflight-leader"
		case "dedup":
			linkReason = "batch-dedup-leader"
		case "peer":
			// The linked trace lives on the replica that enumerated the
			// plan; /tracez on this replica will not resolve it, the
			// origin's will.
			linkReason = "peer-fill"
		}
		tr.AddLink(cp.TraceID, linkReason)
	}
	retained := s.finishTrace(q, tr, "")

	resp := OptimizeResponse{
		RequestID:           q.id,
		ModelVersion:        version,
		ServedModelVersion:  cp.ModelVersion,
		CachedAt:            cp.CachedAt.UTC().Format(time.RFC3339Nano),
		PredictedRuntimeSec: cp.Predicted,
		PredictedLoSec:      cp.PredictedDist.Lo,
		PredictedHiSec:      cp.PredictedDist.Hi,
		PredictedSpreadSec:  cp.PredictedDist.Spread,
		RiskLambda:          cp.RiskLambda,
		StageMs:             map[string]float64{},
		OptimizationMs:      float64(time.Since(q.start).Microseconds()) / 1000,
		TraceID:             traceIDOf(tr),
	}
	for _, p := range x.Assign {
		resp.Assignments = append(resp.Assignments, p.String())
	}
	for _, conv := range x.Conversions {
		resp.Conversions = append(resp.Conversions, ConversionJSON{
			Name:     conv.Name(),
			AfterOp:  int(conv.AfterOp),
			BeforeOp: int(conv.BeforeOp),
			Tuples:   conv.Card,
		})
	}
	if q.simulate && s.Cluster != nil {
		run := s.Cluster.Run(x)
		resp.SimulatedRuntimeSec = run.Runtime
		resp.SimulatedLabel = run.Label()
		// Cache hits still contribute execution feedback: the cached plan
		// vector pairs with this run's observed runtime.
		if s.Feedback != nil && len(cp.VectorF) > 0 && !run.Failed() {
			if err := s.Feedback.AddWithSpread(cp.VectorF, run.Runtime, cp.PredictedDist.Spread); err != nil {
				s.Metrics().Counter("feedback_rejected_total").Inc()
			} else {
				s.Metrics().Counter("feedback_samples_total").Inc()
			}
		}
	}

	s.mu.Lock()
	s.stats.Requests++
	s.stats.TotalMs += resp.OptimizationMs
	s.mu.Unlock()
	m := s.Metrics()
	m.Counter("requests_total").Inc()
	m.CounterVec("serving_model_requests_total", "version").With(resp.ModelVersion).Inc()
	m.Histogram("optimize_ms").Observe(resp.OptimizationMs)
	exemplar := ""
	if retained {
		exemplar = traceIDOf(tr)
	}
	if how == "peer" {
		m.HistogramVec("peer_fill_ms", "outcome").With("hit").ObserveExemplar(q.peerMs, exemplar)
	}
	s.countServing(q.endpoint, "ok", how, resp.OptimizationMs, exemplar)
	if s.Logger != nil {
		s.Logger.Info("optimize",
			"requestId", q.id,
			"status", http.StatusOK,
			"ms", resp.OptimizationMs,
			"modelVersion", resp.ModelVersion,
			"cache", how,
			"predictedSec", resp.PredictedRuntimeSec)
	}
	return &optimizeOut{resp: resp, cache: how, cp: cp}, true
}

// writeResponse writes a successful request unit's reply. An encoding
// failure (usually a dropped connection) is a failed request, not just a
// note: the plan was computed but the client will not see it.
func (s *Server) writeResponse(w http.ResponseWriter, out *optimizeOut) {
	if out.cache != "" {
		w.Header().Set("X-Cache", out.cache)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out.resp); err != nil {
		s.mu.Lock()
		s.stats.Failures++
		s.stats.LastError = err.Error()
		s.mu.Unlock()
		m := s.Metrics()
		m.Counter("encode_failures_total").Inc()
		m.Counter("failures_total").Inc()
	}
}

// record feeds one successful optimization into the metric registry.
func (s *Server) record(resp OptimizeResponse, res *core.Result) {
	m := s.Metrics()
	m.Counter("requests_total").Inc()
	m.CounterVec("serving_model_requests_total", "version").With(resp.ModelVersion).Inc()
	if res.Degraded {
		m.Counter("degraded_total").Inc()
	}
	m.Histogram("optimize_ms").Observe(resp.OptimizationMs)
	m.Histogram("vectors_created").Observe(float64(res.Stats.VectorsCreated))
	m.Histogram("model_rows").Observe(float64(res.Stats.ModelRows))
	if res.Stats.ModelBatches > 0 {
		m.Histogram("model_batch_rows").Observe(float64(res.Stats.ModelRows) / float64(res.Stats.ModelBatches))
	}
	m.Counter("model_batches_total").Add(int64(res.Stats.ModelBatches))
	m.Counter("model_rows_total").Add(int64(res.Stats.ModelRows))
	m.Counter("memo_hits_total").Add(int64(res.Stats.MemoHits))
	m.Counter("interval_kept_total").Add(int64(res.Stats.IntervalKept))
	m.Histogram("plan_spread").Observe(res.PredictedDist.Spread)
	m.Histogram("plan_interval_width").Observe(res.PredictedDist.Hi - res.PredictedDist.Lo)
	m.Counter("pool_rounds_total").Add(int64(res.Stats.Par.Rounds))
	m.Counter("pool_tasks_total").Add(int64(res.Stats.Par.Tasks))
	m.Counter("pool_steals_total").Add(int64(res.Stats.Par.Steals))
	if res.Stats.Par.MaxQueueDepth > 0 {
		m.Histogram("pool_queue_depth").Observe(float64(res.Stats.Par.MaxQueueDepth))
	}
	for stage, ms := range res.Stats.Timings.Milliseconds() {
		m.Histogram("stage_" + stage + "_ms").Observe(ms)
	}
}

// logOptimize emits one structured record for a failed optimize request.
// (The success path logs inline, where the full response is in scope.)
func (s *Server) logOptimize(reqID string, status int, start time.Time, modelVersion string, degraded bool, err error) {
	if s.Logger == nil {
		return
	}
	s.Logger.Error("optimize failed",
		"requestId", reqID,
		"status", status,
		"ms", float64(time.Since(start).Microseconds())/1000,
		"modelVersion", modelVersion,
		"degraded", degraded,
		"err", err.Error())
}
