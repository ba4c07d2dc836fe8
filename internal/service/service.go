// Package service exposes the optimizer over HTTP: clients POST a JSON
// logical plan and receive the chosen execution plan, its predicted runtime,
// and the enumeration statistics. It is the embedding surface a
// cross-platform system would call in place of its cost-based optimizer.
//
// # Request path layering
//
// The serving path is built from four explicit layers, each in its own file:
//
//	admission   (admission.go) — bounded queue, 429 + Retry-After when
//	            full, deadline-aware dequeue, pressure-triggered load
//	            shedding to the degraded beam
//	cache       (optimize.go)  — canonical-fingerprint plan cache lookup
//	singleflight (optimize.go) — concurrent identical requests collapse
//	            into one enumeration
//	optimize    (optimize.go)  — the full vector-algebra enumeration
//
// lifecycle.go holds the probe endpoints (/healthz, /readyz, /statz,
// /metricz) and the store watcher that converges a replica fleet onto the
// same promoted model version; batch.go the slice-at-a-time endpoint.
//
// # Endpoints
//
//   - POST /optimize — optimize a JSON logical plan. Query parameters:
//     deadline_ms (per-request optimization deadline in milliseconds,
//     overriding the server default; the request degrades near the deadline
//     and returns 503 once it is exceeded), risk_lambda (risk-aversion
//     weight λ ≥ 0: plans are scored by predicted mean + λ·spread and
//     pruning keeps near-ties with overlapping predictive intervals; 0, the
//     default, is the point-estimate optimizer), simulate=1 (also run the
//     chosen plan on the simulated cluster), trace=1 (force-retain the
//     request's trace and inline its span tree and pruning audit trail in
//     the response) and nopeer=1 (skip the shared cache tier for this
//     request: no peer probe, no fleet-singleflight claim).
//   - POST /optimize/batch — optimize a slice of plans as one admission
//     unit: members are deduplicated by canonical fingerprint before any
//     enumeration runs and distinct members fan out across the enumeration
//     worker pool (see batch.go). Accepts the same query parameters except
//     trace.
//   - GET /healthz — liveness probe (process is up).
//   - GET /readyz — readiness probe: 200 only while the replica holds a
//     servable model artifact and is not draining; a load balancer fronting
//     N replicas gates traffic on this.
//   - GET /statz — cumulative request counters as JSON (plus the resolved
//     worker count and admission/readiness state).
//   - GET /metricz — full metrics snapshot (see below);
//     ?format=prometheus serves the Prometheus text exposition instead.
//   - GET /tracez — recent retained traces, newest first; ?id= for one
//     (see tracez.go). Accepts both request IDs and W3C trace IDs.
//   - GET /sloz — rolling multi-window SLO burn rates when the server has
//     an SLO configured (see sloz.go).
//   - GET /fleetz — the merged fleet view scraped from every replica
//     registered in the shared artifact store (see fleetz.go).
//   - GET /modelz, POST /modelz/reload, POST /modelz/promote,
//     POST /modelz/retrain, GET /modelz/feedback — the model lifecycle admin
//     surface (see modelz.go).
//   - GET /cachez, POST /cachez/purge — the plan cache admin surface
//     (see cachez.go); with peer fill enabled, /cachez also reports the
//     shared-tier counters.
//   - GET /peercache — the shared cache tier's wire endpoint: peers look up
//     a cache entry by fp=&version=&band=, 200 with a peercache.Entry body
//     on a hit, 404 on a miss (see peercache.go and internal/peercache).
//   - /debug/pprof/ — the net/http/pprof profiling surface, mounted only
//     when the server opts in (roboptd -pprof).
//
// Every response carries an X-Request-Id header; errors are JSON bodies of
// the form {"error": "...", "requestId": "..."}. The optimize endpoints
// accept a W3C traceparent header: the client's trace ID names the
// server-side span tree (retrievable at /tracez?id=<trace ID>), the
// sampled flag forces retention like ?trace=1, and the header is echoed on
// the response (see traceparent handling in optimize.go).
//
// # /metricz fields
//
// The snapshot has two top-level objects, "counters" and "histograms"
// (plus "gauges" when any are set).
//
// Counters:
//
//   - requests_total — optimize requests received (any outcome; batch
//     members count individually)
//   - failures_total — optimize requests that returned an error status
//   - deadline_exceeded_total — requests cancelled by their deadline (503)
//   - degraded_total — successful requests whose plan was budget-degraded
//   - shed_total — successful requests served the degraded beam because
//     admission pressure shed them (DegradeReason "load-shed"; a subset of
//     degraded_total)
//   - encode_failures_total — response JSON encoding failures (client gone)
//   - model_batches_total — batched cost-oracle invocations across requests
//   - model_rows_total — feature rows sent to the cost oracle across
//     requests
//   - memo_hits_total — plan vectors re-entering prediction already scored
//     in their run (no model call)
//   - interval_kept_total — near-tie plan vectors kept alive by overlap
//     pruning across risk-aware (risk_lambda > 0) requests
//   - pool_rounds_total / pool_tasks_total / pool_steals_total — the
//     parallel-enumeration scheduler across requests
//   - model_swaps_total — models hot-swapped in via reload/promote/retrain
//     or the store watcher
//   - store_watch_swaps_total — hot-swaps triggered by the store watcher
//     observing another replica's promotion
//   - store_watch_errors_total — store-watcher reload attempts that failed
//   - batch_requests_total — POST /optimize/batch calls
//   - batch_members_total — plans submitted across all batch calls
//   - batch_dedup_total — batch members served from another member's
//     enumeration in the same batch (fingerprint duplicates)
//   - batch_member_errors_total — batch members that failed individually
//   - feedback_samples_total — execution-feedback samples captured from
//     simulate=1 requests
//   - feedback_rejected_total — feedback samples dropped (width mismatch)
//
// Servers with a configured Admission controller additionally expose
// admission_offered_total, admission_admitted_total, admission_shed_total,
// admission_rejected_total and admission_canceled_total (offered =
// admitted + shed + rejected + canceled), the admission_wait_ms histogram
// (time spent queued before a slot freed) and the admission_queue_depth
// gauge.
//
// Servers with a configured PlanCache additionally expose
// plan_cache_hits_total, plan_cache_misses_total, plan_cache_evictions_total
// (capacity and TTL evictions), plan_cache_collapsed_total (requests served
// by another request's enumeration) and plan_cache_invalidations_total
// (entries reclaimed after a model swap), plus the plan_cache_age_ms
// histogram (entry age at hit time).
//
// Servers with peer fill enabled (roboptd -peer-fill) additionally expose
// plan_cache_peer_fills_total (entries installed from peers),
// peer_fill_hits_total / peer_fill_misses_total / peer_fill_errors_total /
// peer_fill_timeouts_total (outcomes of outbound peer probes),
// peer_serve_total (lookups answered for peers on /peercache),
// fleet_singleflight_claims_total / fleet_singleflight_waits_total /
// fleet_singleflight_takeovers_total (the claim protocol), and the
// peer_fill_ms{outcome} histogram, whose hit buckets carry trace exemplars.
//
// Servers with a configured Retrainer additionally expose the retrain_*
// counters, the retrain_ms histogram and the feedback_buffer_len /
// retrain_last_unix gauges documented in internal/registry.
//
// Labeled series (bounded cardinality; rendered into snapshot keys as
// name{label="value",...} and as native labels in the Prometheus
// exposition): serving_requests_total{endpoint,outcome,cache},
// serving_latency_ms{endpoint} (whose exposition buckets carry
// trace-exemplar annotations for retained traces) and
// serving_model_requests_total{version}.
//
// Servers with a configured SLO additionally expose the slo_objective_ms,
// slo_target and slo_breached gauges plus one slo_burn_rate_<window> gauge
// per rolling window (see sloz.go), refreshed on every /metricz scrape.
//
// Histograms (each reported with count, sum, avg, p50/p90/p99 estimates and
// cumulative power-of-two buckets):
//
//   - optimize_ms — end-to-end optimization latency per successful request
//   - plan_spread — the chosen plan's predictive spread (one std of model
//     uncertainty, seconds) per request
//   - plan_interval_width — the chosen plan's predictive interval width
//     (hi − lo, seconds) per request
//   - vectors_created — plan vectors materialized per request
//   - model_rows — feature rows sent to the cost oracle per request
//   - model_batch_rows — average rows per model batch per request (the
//     inference batch size)
//   - batch_size — members per POST /optimize/batch call
//   - pool_queue_depth — deepest per-worker task queue per request (the
//     enumeration pool's load skew before stealing)
//   - stage_vectorize_ms, stage_enumerate_ms, stage_merge_ms,
//     stage_prune_ms, stage_unvectorize_ms — per-stage span timings of the
//     optimization pipeline
//   - stage_infer_ms — model-inference latency per request (a sub-span of
//     pruning and final plan selection)
package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/peercache"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/simulator"
)

// DefaultMaxBodyBytes caps request bodies when Server.MaxBodyBytes is unset.
const DefaultMaxBodyBytes = 8 << 20

// Server handles optimization requests. The model is resolved per request
// through a registry.Provider so a retrained or reloaded artifact can be
// hot-swapped under live traffic; the legacy Model field still works for
// embedded and test servers and is wrapped in a static provider on first use.
type Server struct {
	// Model is the fixed model of provider-less servers. Ignored when
	// Provider is set.
	Model mlmodel.Model
	// Provider publishes the active model; each request resolves one
	// immutable snapshot from it and reports that snapshot's version.
	Provider *registry.Provider
	// ModelStore, when set, backs POST /modelz/reload and
	// POST /modelz/promote with persisted artifact versions, and is what
	// StartStoreWatcher polls for other replicas' promotions.
	ModelStore *registry.Store
	// Feedback, when set, receives one (plan vector, observed runtime)
	// sample per /optimize?simulate=1 request whose simulated run succeeded
	// — the execution-feedback stream the retraining loop learns from.
	Feedback *registry.Feedback
	// Retrainer, when set, backs POST /modelz/retrain and is reported by
	// GET /modelz.
	Retrainer *registry.Retrainer
	Platforms []platform.ID
	Avail     *platform.Availability
	// Cluster, when set, lets /optimize?simulate=1 report the simulated
	// runtime of the chosen plan.
	Cluster *simulator.Cluster
	// Workers sizes the enumeration worker pool. Zero or negative resolves
	// to runtime.GOMAXPROCS(0) (core.ResolveWorkers); the resolved value is
	// reported by /statz.
	Workers int
	// DefaultDeadline bounds each request's optimization when the client
	// does not pass ?deadline_ms=. Zero means no server-side deadline
	// (the request still inherits the connection's context).
	DefaultDeadline time.Duration
	// Budget is the per-request enumeration budget. If a deadline applies
	// and Budget.SoftDeadline is zero, the soft deadline is set to 80% of
	// it so requests degrade gracefully before the hard deadline kills
	// them.
	Budget core.Budget
	// MaxBodyBytes caps the request body size; oversized plans are
	// rejected with 413 before parsing. Zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatchMembers caps the plans accepted by one POST /optimize/batch
	// call. Zero means DefaultMaxBatchMembers.
	MaxBatchMembers int
	// Admission, when set, bounds the optimize endpoints: at most
	// MaxConcurrent requests optimize at once, at most MaxQueue wait, the
	// rest are refused with 429 + Retry-After, and queued requests admitted
	// under pressure are shed to the degraded beam instead of served in
	// full. Nil admits everything immediately (embedded and test servers).
	Admission *Admission
	// Tracer, when set, records a span tree per /optimize request and
	// retains notable ones for GET /tracez. The request ID doubles as the
	// trace ID, so traces join against logs and response bodies. Nil
	// disables tracing except for explicit ?trace=1 requests, which get a
	// one-shot trace inlined in the response but retained nowhere.
	Tracer *obs.Tracer
	// Logger, when set, receives one structured record per request
	// (requestId, status, latency, degradation, model version). Nil means
	// no request logging.
	Logger *slog.Logger
	// PlanCache, when set, serves structurally repeated plans from a
	// fingerprint-keyed cache instead of re-running the enumeration, and
	// collapses concurrent identical requests into one run. Entries are
	// keyed (fingerprint, modelVersion); every hot-swap through swapIn
	// flash-invalidates stale versions. Responses gain an X-Cache header
	// (hit, miss or collapsed) and the cachedAt/servedModelVersion fields;
	// ?nocache=1 bypasses the cache for one request. GET /cachez inspects
	// it and POST /cachez/purge empties it (see cachez.go).
	PlanCache *plancache.Cache
	// PeerFill, when set alongside PlanCache, turns the plan cache into a
	// fleet-shared tier: a local miss consults peer replicas (discovered
	// through the shared store's heartbeat records) over GET /peercache and
	// installs a peer's entry before falling back to enumeration, and —
	// when ModelStore and ReplicaID are also set — a cold enumeration is
	// preceded by a fleet-singleflight claim in the shared store so only
	// one replica in the fleet enumerates a cold fingerprint. Responses
	// served from a peer carry X-Cache: peer and link the origin
	// enumeration's trace with reason "peer-fill". Nil keeps the serving
	// path byte-identical to a fleet-unaware server; ?nopeer=1 bypasses the
	// tier for one request.
	PeerFill *peercache.Filler
	// AdvertiseAddr is this replica's address as recorded in fleet
	// singleflight claim files — the address waiters poll for the claimed
	// enumeration's result. Usually the fleet registration address.
	AdvertiseAddr string
	// ClaimTTL stamps fleet-singleflight claims: a claim older than this is
	// treated as crashed and taken over (registry.DefaultClaimTTL when 0).
	ClaimTTL time.Duration
	// ClaimWait bounds how long a request waits behind another replica's
	// claim before degrading to a local enumeration (DefaultClaimWait
	// when 0).
	ClaimWait time.Duration
	// SLO, when set, tracks the serving latency objective and its
	// multi-window error-budget burn rate, exposed on GET /sloz and as
	// slo_* gauges on /metricz. Nil disables SLO tracking.
	SLO *obs.SLO
	// ReplicaID names this replica in the fleet (roboptd -replica-id). It
	// is reported by /fleetz and used as the shared-store registration key.
	ReplicaID string
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (roboptd
	// -pprof). Off by default.
	EnablePprof bool

	reqSeq  atomic.Int64
	mOnce   sync.Once
	metrics *obs.Registry
	pOnce   sync.Once
	staticP *registry.Provider
	// adminMu serializes /modelz mutations (reload, promote, retrain),
	// /cachez/purge and store-watcher swaps; the /optimize path never takes
	// it.
	adminMu sync.Mutex
	// unready is set while draining (SetReady(false)); the zero value keeps
	// embedded servers ready by default.
	unready atomic.Bool

	mu    sync.Mutex
	stats struct {
		Requests         int64
		Failures         int64
		DeadlineExceeded int64
		Degraded         int64
		Shed             int64
		Rejected         int64
		TotalMs          float64
		LastError        string
	}
}

// Metrics returns the server's metric registry (created on first use), the
// data behind /metricz.
func (s *Server) Metrics() *obs.Registry {
	s.mOnce.Do(func() {
		s.metrics = obs.NewRegistry()
		// Exemplars point at traces in the Tracer's bounded ring; expose
		// only those the ring still holds, so each resolves on /tracez.
		s.metrics.SetExemplarFilter(func(id string) bool { return s.Tracer.Get(id) != nil })
	})
	return s.metrics
}

// AdminLocker exposes the /modelz mutation mutex so a background retraining
// loop (registry.Retrainer.Gate) can serialize its promotions with admin
// reloads and promotes — otherwise a background hot-swap could interleave
// with an admin promote and leave the provider serving a different version
// than the store's ACTIVE marker records. The store watcher's swaps and
// /cachez/purge serialize behind the same lock.
func (s *Server) AdminLocker() sync.Locker { return &s.adminMu }

// workers returns the resolved enumeration parallelism.
func (s *Server) workers() int { return core.ResolveWorkers(s.Workers) }

// nextReqID mints the next request identifier.
func (s *Server) nextReqID() string {
	return fmt.Sprintf("r%08d", s.reqSeq.Add(1))
}

// provider returns the model provider requests resolve snapshots from:
// Provider when configured, otherwise Model wrapped in a static provider
// once. Model must be set before the first request if Provider is nil.
func (s *Server) provider() *registry.Provider {
	if s.Provider != nil {
		return s.Provider
	}
	s.pOnce.Do(func() {
		if s.Model != nil {
			s.staticP = registry.StaticProvider(s.Model, "")
		}
	})
	return s.staticP
}

// OptimizeResponse is the JSON reply of POST /optimize (and of each member
// of POST /optimize/batch).
type OptimizeResponse struct {
	// RequestID identifies the request in logs and metrics (also sent as
	// the X-Request-Id header). Batch members carry "<batchId>.<index>".
	RequestID string `json:"requestId"`
	// ModelVersion names the model artifact that scored this plan — under
	// concurrent hot-swaps, exactly the snapshot this request resolved.
	ModelVersion string `json:"modelVersion"`
	// Assignments maps operator id (slice index) to platform name.
	Assignments []string `json:"assignments"`
	// Conversions lists the data movement operators of the plan.
	Conversions []ConversionJSON `json:"conversions,omitempty"`
	// PredictedRuntimeSec is the model's estimate (the λ-adjusted selection
	// score on risk-aware requests).
	PredictedRuntimeSec float64 `json:"predictedRuntimeSec"`
	// PredictedLoSec/PredictedHiSec/PredictedSpreadSec describe the model's
	// predictive interval for the chosen plan; omitted when the model
	// exposes no uncertainty.
	PredictedLoSec     float64 `json:"predictedLoSec,omitempty"`
	PredictedHiSec     float64 `json:"predictedHiSec,omitempty"`
	PredictedSpreadSec float64 `json:"predictedSpreadSec,omitempty"`
	// RiskLambda is the effective risk-aversion weight behind this plan: the
	// request's λ, or — on cache hits — the λ the cached plan was optimized
	// under (same band, not necessarily the same float).
	RiskLambda float64 `json:"riskLambda,omitempty"`
	// SimulatedRuntimeSec is filled when simulate=1 and a cluster is
	// configured; OOM/aborted runs surface via SimulatedLabel.
	SimulatedRuntimeSec float64 `json:"simulatedRuntimeSec,omitempty"`
	SimulatedLabel      string  `json:"simulatedLabel,omitempty"`
	// Degraded reports that the enumeration budget (or the soft deadline)
	// was exhausted and the plan is best-effort; DegradeReason names the
	// exhausted dimension ("load-shed" when admission pressure shed the
	// request onto the beam up front).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degradeReason,omitempty"`
	// Stats summarizes the enumeration work.
	Stats StatsJSON `json:"stats"`
	// StageMs breaks the optimization latency down by pipeline stage.
	StageMs map[string]float64 `json:"stageMs"`
	// OptimizationMs is the wall-clock optimization latency.
	OptimizationMs float64 `json:"optimizationMs"`
	// TraceID names the request's trace: the remote W3C trace ID when the
	// caller sent a traceparent header, the request ID otherwise. Retained
	// traces resolve via GET /tracez?id=<TraceID>. Empty on untraced runs.
	TraceID string `json:"traceId,omitempty"`
	// Trace inlines the run's span tree and pruning audit trail when the
	// request asked for it with ?trace=1. Cache hits carry no audit trail
	// — the enumeration never ran.
	Trace *core.RunTrace `json:"trace,omitempty"`
	// CachedAt timestamps the cache entry that served this response
	// (RFC 3339; present on cache hits and collapsed requests only).
	CachedAt string `json:"cachedAt,omitempty"`
	// ServedModelVersion names the model version that produced the served
	// plan when it came from the cache. It always equals ModelVersion:
	// entries are keyed by model version, so a swap can never pair a
	// cached plan with a model that did not produce it.
	ServedModelVersion string `json:"servedModelVersion,omitempty"`
}

// ConversionJSON is one conversion operator in the reply.
type ConversionJSON struct {
	Name     string  `json:"name"`
	AfterOp  int     `json:"afterOp"`
	BeforeOp int     `json:"beforeOp"`
	Tuples   float64 `json:"tuples"`
}

// StatsJSON mirrors the counter fields of core.Stats. The pool fields
// describe the parallel-enumeration scheduler: rounds and tasks are
// schedule-deterministic, steals and queue depth depend on the Workers
// setting and timing.
type StatsJSON struct {
	VectorsCreated int `json:"vectorsCreated"`
	Merges         int `json:"merges"`
	ModelBatches   int `json:"modelBatches"`
	ModelRows      int `json:"modelRows"`
	MemoHits       int `json:"memoHits"`
	Pruned         int `json:"pruned"`
	IntervalKept   int `json:"intervalKept,omitempty"`
	PeakEnumSize   int `json:"peakEnumSize"`
	PoolRounds     int `json:"poolRounds,omitempty"`
	PoolTasks      int `json:"poolTasks,omitempty"`
	PoolSteals     int `json:"poolSteals,omitempty"`
	PoolQueueDepth int `json:"poolQueueDepth,omitempty"`
}

// ErrorResponse is the JSON body of every error reply.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId"`
}

// Handler returns the HTTP handler serving the endpoint families documented
// in the package comment.
func (s *Server) Handler() http.Handler {
	if s.Admission != nil && s.Admission.Metrics == nil {
		s.Admission.Metrics = s.Metrics()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/optimize/batch", s.handleOptimizeBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/metricz", s.handleMetricz)
	mux.HandleFunc("/modelz", s.handleModelz)
	mux.HandleFunc("/modelz/reload", s.handleModelzReload)
	mux.HandleFunc("/modelz/promote", s.handleModelzPromote)
	mux.HandleFunc("/modelz/retrain", s.handleModelzRetrain)
	mux.HandleFunc("/modelz/feedback", s.handleModelzFeedback)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/sloz", s.handleSloz)
	mux.HandleFunc("/fleetz", s.handleFleetz)
	mux.HandleFunc("/cachez", s.handleCachez)
	mux.HandleFunc("/cachez/purge", s.handleCachezPurge)
	mux.HandleFunc("/peercache", s.handlePeercache)
	s.registerPprof(mux)
	return mux
}

func (s *Server) maxBody() int64 {
	if s.MaxBodyBytes > 0 {
		return s.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// countFailure records a failed request in the legacy stats block and the
// metric registry without writing anything — the accounting shared by
// whole-request failures (fail) and per-member batch failures.
func (s *Server) countFailure(err error) {
	s.mu.Lock()
	s.stats.Requests++
	s.stats.Failures++
	s.stats.LastError = err.Error()
	s.mu.Unlock()
	m := s.Metrics()
	m.Counter("requests_total").Inc()
	m.Counter("failures_total").Inc()
}

// fail reports an error reply as JSON and counts it.
func (s *Server) fail(w http.ResponseWriter, reqID string, code int, err error) {
	s.countFailure(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), RequestID: reqID})
}
