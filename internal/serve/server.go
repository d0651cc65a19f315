// Package serve implements oipa-serve: a long-running, concurrent
// influence-query service over one shared social graph.
//
// A batch oipa-run invocation pays the full pipeline — load graph, build
// per-piece layouts, sample θ MRR sets, index, solve — for every single
// query. The service instead loads the graph once and holds the expensive
// intermediate artifacts in a prepared-artifact registry:
//
//   - graph.PieceLayouts cached by topic-vector hash (campaigns that
//     share pieces share layouts);
//   - θ-monotone prepared artifacts (MRR samples + pool index + bound
//     table) cached by (campaign, seed) with LRU eviction and
//     singleflight de-duplication of concurrent identical preparations.
//     θ is the accuracy dial, not a cache key: a request with θ at or
//     below the prepared sample count is served from a θ-prefix view of
//     the cached artifact (bit-identical to a fresh θ-sized
//     preparation, zero sampling work), while a larger θ grows the
//     shared collection incrementally (delta sampling plus an O(Δθ)
//     Index.ExtendFrom that appends only the new samples to the
//     inverted lists — never a full re-index; serialized per entry) and
//     republishes an immutable snapshot — in-flight readers of older
//     snapshots are never invalidated;
//   - one artifact lifecycle (grow → prefix → evict): an artifact only
//     grows, is served as a θ-prefix, or is evicted by LRU capacity;
//     every build of an entry — its first preparation, a growth step, a
//     re-prepare after a panic — runs under the entry's one grow slot,
//     and published artifacts are accounted at their resident bytes
//     (resident_bytes in the metrics);
//   - solver scratch in each entry's core.Instance lineage (core.Solve
//     checks evaluators out of it), per-entry rrset.AUEstimator pools,
//     and one server-wide pool of index-estimate scratch, so concurrent
//     requests reuse scratch without data races — the MRR views, indexes
//     and layouts they read are immutable and shared.
//
// Endpoints (JSON over HTTP):
//
//	POST /v1/solve     solve an OIPA instance
//	POST /v1/estimate  MRR-estimate σ(S̄) of a given plan
//	POST /v1/simulate  forward Monte-Carlo σ(S̄) of a given plan
//	GET  /healthz      liveness + graph shape (stays 200 through a drain)
//	GET  /readyz       readiness: 503 once draining began
//	GET  /metrics      request/cache counters (JSON; Prometheus text
//	                   with ?format=prometheus)
//
// # Overload safety
//
// The heavy endpoints (solve, estimate, simulate) share one request
// path. A body no preparation or estimator can serve is refused with a
// 400 at the door. The rest pass through a weighted admission semaphore
// with a bounded wait queue before doing any registry or solver work;
// beyond the queue — or once a request's deadline expires while still
// in line — the request is shed with a 429 and Retry-After, having cost
// the server nothing. Every request carries a deadline (client
// timeout_ms capped by Config.RequestTimeout) wired through the
// registry's sampling loops and into core.Solve: a search whose
// deadline expires mid-search returns its current incumbent and
// residual bound marked "degraded" rather than failing. Panics anywhere
// in a handler or in a registry build are contained (panics_total). A
// panic in a first preparation fails only the request whose build hit
// it and drops the entry; the requests queued behind it prepare it
// afresh. A panic mid-growth poisons only that entry: its last published
// snapshot keeps serving, and the next request that needs more samples
// rebuilds it from scratch, bit-identical to a fresh preparation.
// Shutdown drains gracefully: readiness flips, new heavy work is refused
// with 503, and in-flight requests run to completion within the grace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oipa/internal/cascade"
	"oipa/internal/core"
	"oipa/internal/faultpoint"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/obs"
	"oipa/internal/rrset"
	"oipa/internal/topic"
)

// Config configures a Server. Graph and Pool are required; zero values
// elsewhere select the documented defaults.
type Config struct {
	Graph *graph.Graph
	Pool  []int32        // promoter pool V^p shared by every query
	Model logistic.Model // default adoption model (zero: alpha=2, beta=1)

	DefaultTheta int // MRR samples when a request omits theta (default 50k)
	MaxTheta     int // reject requests above this (default 2M; memory guard)
	MaxSimRuns   int // cap forward-simulation runs (default 1M)

	LayoutCapacity   int // cached piece layouts (default 128)
	InstanceCapacity int // cached prepared instances (default 8)

	// RequestTimeout caps — and, for clients that send no timeout_ms,
	// defaults — the execution deadline of every heavy request (default
	// 30s). The deadline is honored at sample-block granularity inside
	// the registry and by core.Solve's search: an expiring solve degrades
	// to its incumbent instead of failing.
	RequestTimeout time.Duration
	// AdmitCapacity sizes the weighted admission semaphore shared by the
	// heavy endpoints (solve and simulate weigh 2, estimate 1; default
	// 2×GOMAXPROCS units).
	AdmitCapacity int
	// AdmitQueue bounds the admission wait queue (default 4×capacity;
	// negative means no queue): requests beyond it — or whose deadline
	// expires while queued — are shed with 429 + Retry-After.
	AdmitQueue int

	// Logger receives one structured record per instrumented request:
	// request id, endpoint, campaign, θ, method, status, duration — and
	// the span tree when the request was traced. nil disables request
	// logging (metrics and traces still work).
	Logger *slog.Logger
	// SlowRequest, when positive, marks requests slower than this with a
	// warn-level "slow request" record (slow_requests counts them even
	// without a Logger).
	SlowRequest time.Duration
	// TraceSample is the fraction of requests traced without an explicit
	// ?debug=trace — deterministic every-Nth sampling, so 0.01 traces
	// every 100th request. Sampled span trees go to the Logger;
	// ?debug=trace additionally returns the tree inline in the response.
	// 0 disables sampling.
	TraceSample float64
}

func (c *Config) fillDefaults() {
	if c.Model == (logistic.Model{}) {
		c.Model = logistic.Model{Alpha: 2, Beta: 1}
	}
	if c.DefaultTheta <= 0 {
		c.DefaultTheta = 50_000
	}
	if c.MaxTheta <= 0 {
		c.MaxTheta = 2_000_000
	}
	if c.MaxSimRuns <= 0 {
		c.MaxSimRuns = 1_000_000
	}
	if c.LayoutCapacity <= 0 {
		c.LayoutCapacity = 128
	}
	if c.InstanceCapacity <= 0 {
		c.InstanceCapacity = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.AdmitCapacity <= 0 {
		c.AdmitCapacity = 2 * runtime.GOMAXPROCS(0)
	}
	if c.AdmitQueue == 0 {
		c.AdmitQueue = 4 * c.AdmitCapacity
	}
	if c.AdmitQueue < 0 {
		c.AdmitQueue = 0
	}
}

// Server is the oipa-serve HTTP service. Create with New and mount
// Handler(); New starts no goroutine, so a server needs no teardown
// beyond Shutdown's drain.
type Server struct {
	cfg Config
	g   *graph.Graph
	reg *Registry
	mux *http.ServeMux
	m   metrics

	admit    *admission // weighted overload valve for the heavy endpoints
	inflight drainGroup // admitted-request tracking for graceful drain

	// auScratch pools the exact estimate's *rrset.AUScratch across every
	// artifact and θ: EstimateAUWith grows a scratch that is too small, so
	// one pool holds about one θ_max-sized scratch per concurrent
	// estimate, where a pool per artifact would hold one per artifact.
	auScratch sync.Pool

	logger     *slog.Logger
	traceEvery int64        // trace every Nth request (0 = sampling off)
	traceSeq   atomic.Int64 // request counter driving the sampler
}

// New validates the configuration and assembles the service.
func New(cfg Config) (*Server, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("serve: nil graph")
	}
	if len(cfg.Pool) == 0 {
		return nil, fmt.Errorf("serve: empty promoter pool")
	}
	cfg.fillDefaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("serve: default model: %w", err)
	}
	s := &Server{cfg: cfg, g: cfg.Graph, logger: cfg.Logger}
	s.auScratch.New = func() any { return new(rrset.AUScratch) }
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		return nil, fmt.Errorf("serve: trace sample rate %v outside [0,1]", cfg.TraceSample)
	}
	if cfg.TraceSample > 0 {
		s.traceEvery = int64(math.Round(1 / cfg.TraceSample))
		if s.traceEvery < 1 {
			s.traceEvery = 1
		}
	}
	s.reg = newRegistry(cfg.Graph, cfg.Pool, cfg.Model, cfg.LayoutCapacity, cfg.InstanceCapacity, &s.m)
	s.admit = newAdmission(int64(cfg.AdmitCapacity), cfg.AdmitQueue)
	s.routes()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the prepared-artifact registry (examples and tests
// inspect cache state through it).
func (s *Server) Registry() *Registry { return s.reg }

// Close does nothing: New starts no goroutine, so there is nothing to
// stop. It stays only because benchmark/ calls it; the next change to
// benchmark/ drops those calls and this method.
func (s *Server) Close() {}

// Shutdown drains the service gracefully: readiness flips to draining
// immediately (load balancers stop routing, /readyz turns 503), new
// heavy requests are refused with 503, and Shutdown waits — bounded by
// ctx — for in-flight requests to complete. An expired ctx is reported
// as an error naming the requests still in flight; each keeps running
// under its own deadline. The HTTP listener is the caller's to stop:
// call http.Server.Shutdown after this returns so completed responses
// still flush.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.inflight.drain(ctx)
}

// Metrics snapshots every service counter plus the registry gauges.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.m.snapshot()
	snap.Registry.Instances = s.reg.Len()
	snap.Registry.ResidentBytes = s.reg.ResidentBytes()
	snap.Registry.Layouts, snap.Registry.LayoutBytes, snap.Registry.LayoutHits, snap.Registry.LayoutMisses = s.reg.layoutStats()
	snap.Server.AdmitQueued = s.admit.queued()
	snap.Server.Draining = s.inflight.isDraining()
	snap.Runtime = obs.ReadRuntime()
	return snap
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.withRecover(s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.withRecover(s.handleReadyz))
	s.mux.HandleFunc("/metrics", s.withRecover(s.handleMetrics))
	s.mux.HandleFunc("/v1/solve", s.instrument("solve", s.withRecover(s.handleSolve)))
	s.mux.HandleFunc("/v1/estimate", s.instrument("estimate", s.withRecover(s.handleEstimate)))
	s.mux.HandleFunc("/v1/simulate", s.instrument("simulate", s.withRecover(s.handleSimulate)))
}

// reqInfo is the per-request observability state threaded through the
// instrumented handlers via the request context: the generated request
// id, the endpoint class, the parsed request labels the handler fills in
// once it has them, and the trace (nil unless the request is debugged or
// sampled).
type reqInfo struct {
	id       string
	endpoint string
	campaign string
	theta    int
	method   string
	debug    bool // ?debug=trace: return the span tree inline
	trace    *obs.Trace
}

type reqInfoKey struct{}

// requestInfo retrieves the instrumented request state. Every heavy
// handler is mounted under instrument, so a handler always finds it.
func requestInfo(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// echo is what a response repeats of its request: the request id, and
// under ?debug=trace the span tree. The root span is still open (the
// middleware ends it after the response is written); Tree renders it
// with its duration so far.
func (ri *reqInfo) echo() (string, *obs.SpanTree) {
	if ri.debug && ri.trace != nil {
		return ri.id, ri.trace.Tree()
	}
	return ri.id, nil
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrument is the observability middleware for the heavy endpoints:
// it assigns a request id, decides tracing (?debug=trace always traces;
// otherwise deterministic every-Nth sampling per Config.TraceSample),
// captures the response status, feeds the endpoint's latency histogram,
// counts slow requests against Config.SlowRequest, and emits one
// structured log record per request — with the span tree attached when
// the request was traced. It wraps OUTSIDE withRecover so a contained
// panic still produces a log record and a latency observation.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{id: obs.NewRequestID(), endpoint: endpoint}
		ctx := r.Context()
		ri.debug = r.URL.Query().Get("debug") == "trace"
		if ri.debug || (s.traceEvery > 0 && s.traceSeq.Add(1)%s.traceEvery == 0) {
			ctx, ri.trace = obs.NewTrace(ctx, ri.id, endpoint)
			s.m.tracedRequests.Add(1)
		}
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))

		dur := time.Since(start)
		if hg := s.m.latency(endpoint); hg != nil {
			hg.Observe(dur)
		}
		slow := s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest
		if slow {
			s.m.slowRequests.Add(1)
		}
		var tree *obs.SpanTree
		if ri.trace != nil {
			tree = ri.trace.Finish()
		}
		if s.logger != nil {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			level, msg := slog.LevelInfo, "request"
			if slow {
				level, msg = slog.LevelWarn, "slow request"
			}
			attrs := []slog.Attr{
				slog.String("request_id", ri.id),
				slog.String("endpoint", ri.endpoint),
				slog.Int("status", status),
				slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
			}
			if ri.campaign != "" {
				attrs = append(attrs, slog.String("campaign", ri.campaign))
			}
			if ri.theta > 0 {
				attrs = append(attrs, slog.Int("theta", ri.theta))
			}
			if ri.method != "" {
				attrs = append(attrs, slog.String("method", ri.method))
			}
			if slow {
				attrs = append(attrs, slog.Bool("slow", true))
			}
			if tree != nil {
				attrs = append(attrs, slog.Any("trace", tree))
			}
			s.logger.LogAttrs(context.Background(), level, msg, attrs...)
		}
	}
}

// withRecover is the panic-isolation middleware: a panic anywhere in a
// handler is recovered, counted (panics_total), and answered as a 500 —
// one poisoned request must never take down the process. The net/http
// abort sentinel is re-raised so deliberate connection aborts keep
// working.
func (s *Server) withRecover(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.m.panicsTotal.Add(1)
				s.error(w, http.StatusInternalServerError, panicError{val: p})
			}
		}()
		h(w, r)
	}
}

// ---- request / response types ----

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	Campaign  topic.Campaign `json:"campaign"`
	Method    string         `json:"method"` // greedy | bab | babp | im | tim (default babp)
	K         int            `json:"k"`
	Theta     int            `json:"theta"`     // default Config.DefaultTheta
	Seed      uint64         `json:"seed"`      // sampling seed (default 1)
	Epsilon   float64        `json:"epsilon"`   // BAB-P decay (default 0.5)
	Tolerance float64        `json:"tolerance"` // termination gap (default 0.01)
	MaxNodes  int            `json:"max_nodes"` // 0 = unbounded
	Alpha     float64        `json:"alpha"`     // adoption model override (0 = server default)
	Beta      float64        `json:"beta"`
	// TimeoutMS is the client's execution deadline in milliseconds,
	// capped by the server's RequestTimeout (which also applies when the
	// field is omitted). An expiring solve returns its incumbent marked
	// degraded; a deadline spent entirely in the admission queue sheds
	// the request with 429 before any work runs.
	TimeoutMS int `json:"timeout_ms"`
}

// SolveResponse is the body of a completed solve.
type SolveResponse struct {
	Method   string    `json:"method"`
	Utility  float64   `json:"utility"`
	Upper    float64   `json:"upper,omitempty"` // OPT ≤ upper/(1−1/e), or /(1−1/e−ε) for babp
	Plan     [][]int32 `json:"plan"`
	Pieces   []string  `json:"pieces"`
	Theta    int       `json:"theta"`
	K        int       `json:"k"`
	SolveMS  float64   `json:"solve_ms"`
	SampleMS float64   `json:"sample_ms"` // 0 when no sampling ran (hit / prefix)
	// IndexMS is the inverted-index time behind this request: the full
	// BuildIndex on a miss, only the O(Δθ) ExtendFrom delta on a growth
	// step, 0 on a hit / prefix.
	IndexMS  float64          `json:"index_ms"`
	Stats    core.SolverStats `json:"stats"`
	CacheHit bool             `json:"cache_hit"` // served without sampling work
	// PrefixHit: served as a θ-prefix of a larger cached artifact.
	PrefixHit bool `json:"prefix_hit,omitempty"`
	// Extended: this request grew the cached artifact to its θ (one
	// incremental sampling pass; SampleMS covers only the growth step).
	Extended bool `json:"extended,omitempty"`
	// PreparedTheta: the sample count of the backing artifact (>= Theta
	// when served from a prefix).
	PreparedTheta int `json:"prepared_theta,omitempty"`
	// Degraded: the request's deadline expired mid-search and the solver
	// returned early. Utility is still a valid incumbent (the plan was
	// fully evaluated) and Upper the residual bound over what the search
	// left open, certifying OPT ≤ upper/(1−1/e), or /(1−1/e−ε) for babp,
	// as a complete answer does — the answer is coarser, not wrong.
	Degraded bool `json:"degraded,omitempty"`
	// RequestID is the server-assigned id of the request that produced
	// this response. It keys the structured request log and any sampled
	// trace.
	RequestID string `json:"request_id,omitempty"`
	// Trace is the request's span tree, returned inline when the request
	// asked for it with ?debug=trace.
	Trace *obs.SpanTree `json:"trace,omitempty"`
}

// EstimateRequest is the body of POST /v1/estimate: MRR-estimate the
// adoption utility of an explicit plan. Seeds may be any graph node.
type EstimateRequest struct {
	Campaign  topic.Campaign `json:"campaign"`
	Plan      [][]int32      `json:"plan"`
	Theta     int            `json:"theta"`
	Seed      uint64         `json:"seed"`
	Alpha     float64        `json:"alpha"`
	Beta      float64        `json:"beta"`
	TimeoutMS int            `json:"timeout_ms"` // see SolveRequest.TimeoutMS
}

// EstimateResponse is the body of a completed estimate.
type EstimateResponse struct {
	Utility float64 `json:"utility"`
	Theta   int     `json:"theta"`
	// EstimateMode is always "exact": the server has one estimator. The
	// field stays only because the benchmark oracle (benchmark/oracle.go)
	// requires it; the next change to benchmark/ drops it.
	EstimateMode  string `json:"estimate_mode"`
	CacheHit      bool   `json:"cache_hit"`
	PrefixHit     bool   `json:"prefix_hit,omitempty"`
	Extended      bool   `json:"extended,omitempty"`
	PreparedTheta int    `json:"prepared_theta,omitempty"`
	// RequestID / Trace: see SolveResponse.
	RequestID string        `json:"request_id,omitempty"`
	Trace     *obs.SpanTree `json:"trace,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate: forward Monte-Carlo
// ground truth for an explicit plan (no MRR sampling involved — only the
// layout cache is consulted).
type SimulateRequest struct {
	Campaign  topic.Campaign `json:"campaign"`
	Plan      [][]int32      `json:"plan"`
	Runs      int            `json:"runs"` // default 10000
	Seed      uint64         `json:"seed"`
	Alpha     float64        `json:"alpha"`
	Beta      float64        `json:"beta"`
	TimeoutMS int            `json:"timeout_ms"` // admission-queue deadline; the simulation itself is not interruptible
}

// SimulateResponse is the body of a completed simulation.
type SimulateResponse struct {
	Utility float64 `json:"utility"`
	Runs    int     `json:"runs"`
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"graph":  s.graphInfo(),
		"pool":   len(s.cfg.Pool),
	})
}

// graphInfo is the graph shape block of the health probes.
func (s *Server) graphInfo() map[string]int {
	return map[string]int{"n": s.g.N(), "m": s.g.M(), "z": s.g.Z()}
}

// handleReadyz is the readiness probe, split from liveness: it turns
// 503 the moment a drain begins, so
// load balancers stop routing while /healthz keeps answering 200 and
// orchestrators don't kill a process that is finishing its in-flight
// work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.inflight.isDraining() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ready",
		"graph":  s.graphInfo(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// deadline derives a heavy request's execution context: the client's
// timeout_ms capped by Config.RequestTimeout, which also serves as the
// default when the client sends none.
func (s *Server) deadline(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// admitted runs one heavy request's work under its deadline and an
// admission slot of the endpoint class's weight: refused with 503 once
// draining, shed with 429 when the wait queue overflows or the deadline
// expires in line or by the time the slot is granted. From the grant
// until run returns, inflight counts the request. run's result is
// answered as JSON, its error through failRequest.
func (s *Server) admitted(w http.ResponseWriter, r *http.Request, weight int64, inflight *atomic.Int64, timeoutMS int, run func(context.Context) (any, error)) {
	ctx, cancel := s.deadline(r, timeoutMS)
	defer cancel()
	if err := s.inflight.enter(); err != nil {
		s.failRequest(w, err)
		return
	}
	defer s.inflight.leave()
	_, sp := obs.StartSpan(ctx, "admit")
	waitStart := time.Now()
	err := s.admit.acquire(ctx, weight)
	s.m.latAdmit.Observe(time.Since(waitStart))
	sp.End()
	if err != nil {
		s.failRequest(w, err)
		return
	}
	defer s.admit.release(weight)
	if err := ctx.Err(); err != nil {
		s.failRequest(w, fmt.Errorf("%w: deadline expired at admission: %v", errShed, err))
		return
	}
	inflight.Add(1)
	defer inflight.Add(-1)
	resp, err := run(ctx)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// failRequest maps a heavy-path failure onto the transport: shed work →
// 429 + Retry-After (nothing ran; an immediate retry elsewhere is
// safe), a deadline that expired mid-work → 503 + Retry-After (both
// count shed_total), draining → 503, a contained panic → 500, anything
// else → 400 (a request problem).
func (s *Server) failRequest(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShed):
		s.m.shedTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.shedTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "5")
		s.error(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &panicError{}):
		s.error(w, http.StatusInternalServerError, err)
	default:
		s.error(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.m.solveRequests.Add(1)
	var req SolveRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if err := s.normalizeSolve(&req); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	ri := requestInfo(r.Context())
	ri.campaign, ri.theta, ri.method = campaignLabel(req.Campaign), req.Theta, req.Method
	s.admitted(w, r, weightSolve, &s.m.inflightSolves, req.TimeoutMS, func(ctx context.Context) (any, error) {
		resp, err := s.solve(ctx, req)
		if err != nil {
			return nil, err
		}
		resp.RequestID, resp.Trace = ri.echo()
		return resp, nil
	})
}

// campaignLabel renders a campaign's piece names for log and trace
// labels ("news+promo").
func campaignLabel(c topic.Campaign) string {
	names := make([]string, len(c.Pieces))
	for i, p := range c.Pieces {
		names[i] = p.Name
	}
	return strings.Join(names, "+")
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.m.estimateRequests.Add(1)
	var req EstimateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Theta == 0 {
		req.Theta = s.cfg.DefaultTheta
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if err := s.checkPrepare(req.Theta, &req.Campaign); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	model, err := s.checkPlan("rrset", req.Plan, &req.Campaign, req.Alpha, req.Beta)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	ri := requestInfo(r.Context())
	ri.campaign, ri.theta = campaignLabel(req.Campaign), req.Theta
	s.admitted(w, r, weightEstimate, &s.m.inflightEstimates, req.TimeoutMS, func(ctx context.Context) (any, error) {
		regCtx, regSpan := obs.StartSpan(ctx, "registry")
		art, outcome, err := s.reg.Instance(regCtx, req.Campaign, req.Theta, req.Seed)
		regSpan.End()
		if err != nil {
			return nil, err
		}
		_, sp := obs.StartSpan(ctx, "estimate.exact")
		util, err := s.estimateExact(art, req.Plan, model, req.Theta)
		sp.End()
		if err != nil {
			return nil, err
		}
		resp := &EstimateResponse{
			Utility:       util,
			Theta:         req.Theta,
			EstimateMode:  "exact",
			CacheHit:      outcome.CacheHit(),
			PrefixHit:     outcome == OutcomePrefix,
			Extended:      outcome == OutcomeExtend,
			PreparedTheta: art.Theta(),
		}
		resp.RequestID, resp.Trace = ri.echo()
		return resp, nil
	})
}

// checkPrepare refuses, before admission, what no preparation can
// serve: a negative θ or one above the server cap, or more pieces than
// core.Prepare takes. Its texts for a negative θ and for the piece count
// are the registry's and core's.
func (s *Server) checkPrepare(theta int, c *topic.Campaign) error {
	if theta < 0 {
		return fmt.Errorf("serve: non-positive theta %d", theta)
	}
	if theta > s.cfg.MaxTheta {
		return fmt.Errorf("serve: theta %d exceeds the server cap %d", theta, s.cfg.MaxTheta)
	}
	if l := c.L(); l > core.MaxPieces {
		return fmt.Errorf("core: %d pieces exceed the %d-piece limit", l, core.MaxPieces)
	}
	return nil
}

// checkPlan refuses, before admission, an estimate or simulate body no
// estimator can answer — an invalid campaign, a plan whose seed-set count
// is not the campaign's piece count, or an invalid model override — so
// the refusal costs no admission wait, no preparation and no layout
// build. It returns the request's model. Its texts are the ones the work
// behind the endpoint gives: pkg "rrset" for /v1/estimate, whose campaign
// text is the registry's, "cascade" for /v1/simulate.
func (s *Server) checkPlan(pkg string, plan [][]int32, c *topic.Campaign, alpha, beta float64) (logistic.Model, error) {
	if err := c.Validate(s.g.Z()); err != nil {
		if pkg == "rrset" {
			err = fmt.Errorf("serve: campaign: %w", err)
		}
		return logistic.Model{}, err
	}
	if len(plan) != c.L() {
		return logistic.Model{}, fmt.Errorf("%s: plan has %d seed sets for %d pieces", pkg, len(plan), c.L())
	}
	return s.model(alpha, beta)
}

// estimateExact is the exact estimate σ̂(plan) over the artifact's first
// theta samples. A plan whose seeds are all pool members is answered
// through the inverted index, at a cost proportional to the seeds'
// sample lists rather than θ; the index sums per-sample adoptions in the
// scan's sample order, so the float64 is the scan's bit for bit. Any
// plan the index refuses — a seed outside the pool or the graph — goes
// to the θ-scan, which scores any seed, counts ids outside the graph as
// covering nothing, and owns the error text.
func (s *Server) estimateExact(art *Artifact, plan [][]int32, model logistic.Model, theta int) (float64, error) {
	if inst, err := art.InstanceAt(theta); err == nil {
		sc := s.auScratch.Get().(*rrset.AUScratch)
		util, err := inst.Index.EstimateAUWith(plan, model, sc)
		s.auScratch.Put(sc)
		if err == nil {
			return util, nil
		}
	}
	est := art.estimator()
	defer art.putEstimator(est)
	return est.EstimateAUPrefix(plan, model, theta)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.m.simulateRequests.Add(1)
	var req SimulateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Runs <= 0 {
		req.Runs = 10_000
	}
	if req.Runs > s.cfg.MaxSimRuns {
		s.error(w, http.StatusBadRequest, fmt.Errorf("serve: runs %d exceeds the server cap %d", req.Runs, s.cfg.MaxSimRuns))
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	model, err := s.checkPlan("cascade", req.Plan, &req.Campaign, req.Alpha, req.Beta)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	s.admitted(w, r, weightSimulate, &s.m.inflightSimulates, req.TimeoutMS, func(context.Context) (any, error) {
		layouts := make([]*graph.PieceLayout, req.Campaign.L())
		for j, piece := range req.Campaign.Pieces {
			lay, err := s.reg.Layouts().Get(piece.Dist)
			if err != nil {
				return nil, err
			}
			layouts[j] = lay
		}
		util, err := cascade.EstimateAdoptionLayouts(s.g, layouts, req.Plan, model, req.Runs, req.Seed)
		if err != nil {
			return nil, err
		}
		return SimulateResponse{Utility: util, Runs: req.Runs}, nil
	})
}

// ---- solve execution ----

func (s *Server) normalizeSolve(req *SolveRequest) error {
	if req.Method == "" {
		req.Method = "babp"
	}
	req.Method = strings.ToLower(req.Method)
	if !slices.Contains(core.Methods(), req.Method) {
		return fmt.Errorf("serve: unknown method %q", req.Method)
	}
	if req.K <= 0 {
		return fmt.Errorf("serve: non-positive budget k=%d", req.K)
	}
	if req.Theta == 0 {
		req.Theta = s.cfg.DefaultTheta
	}
	if err := s.checkPrepare(req.Theta, &req.Campaign); err != nil {
		return err
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	defaults := core.DefaultBABOptions()
	if req.Epsilon == 0 {
		req.Epsilon = defaults.Epsilon
	}
	if req.Tolerance == 0 {
		req.Tolerance = defaults.Tolerance
	}
	// Validate the search options now, before the registry prepares
	// anything.
	if err := req.searchOptions().Validate(req.Method); err != nil {
		return err
	}
	if err := req.Campaign.Validate(s.g.Z()); err != nil {
		return err
	}
	// The model override resolves to the model the solve runs with.
	model, err := s.model(req.Alpha, req.Beta)
	req.Alpha, req.Beta = model.Alpha, model.Beta
	return err
}

// searchOptions are the branch-and-bound options a request asks for.
func (req *SolveRequest) searchOptions() core.BABOptions {
	return core.BABOptions{Epsilon: req.Epsilon, Tolerance: req.Tolerance, MaxNodes: req.MaxNodes}
}

// model resolves a per-request adoption-model override.
func (s *Server) model(alpha, beta float64) (logistic.Model, error) {
	m := s.cfg.Model
	if alpha != 0 {
		m.Alpha = alpha
	}
	if beta != 0 {
		m.Beta = beta
	}
	if err := m.Validate(); err != nil {
		return m, fmt.Errorf("serve: model: %w", err)
	}
	return m, nil
}

// solve runs one normalized solve request against the registry. ctx
// (the request deadline) bounds the registry wait, the growth path and
// the branch-and-bound search.
func (s *Server) solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	// Chaos hook: a fault before any registry work — a delay here holds
	// the request's admission slot, which is how the chaos suite
	// saturates the overload valve.
	if err := faultpoint.Hit("serve.solve.pre"); err != nil {
		return nil, err
	}
	regCtx, regSpan := obs.StartSpan(ctx, "registry")
	art, outcome, err := s.reg.Instance(regCtx, req.Campaign, req.Theta, req.Seed)
	regSpan.End()
	if err != nil {
		return nil, err
	}

	base, err := art.InstanceAt(req.Theta)
	if err != nil {
		return nil, err
	}
	inst, err := base.WithK(req.K)
	if err != nil {
		return nil, err
	}
	if model := (logistic.Model{Alpha: req.Alpha, Beta: req.Beta}); model != s.cfg.Model {
		if inst, err = inst.WithModel(model); err != nil {
			return nil, err
		}
	}

	// Chaos hook: a fault between artifact acquisition and the solver
	// dispatch — a delay here burns the request's deadline so the search
	// below starts with ctx already done and degrades immediately.
	if err := faultpoint.Hit("serve.solve.dispatch"); err != nil {
		return nil, err
	}
	s.m.solvesTotal.Add(1)
	_, solveSpan := obs.StartSpan(ctx, "solve."+req.Method)
	res, err := core.Solve(ctx, inst, req.Method, req.searchOptions())
	solveSpan.End()
	if err != nil {
		s.m.solveErrors.Add(1)
		return nil, err
	}
	s.m.addSolverStats(res.Stats)
	// Graceful degradation: the deadline expired but the search still
	// produced a valid incumbent (BAB seeds the root with a fully
	// evaluated greedy plan before the first expansion, so even an
	// immediately-stopped solve answers). A solve that computed bounds —
	// greedy, bab, babp — is marked degraded; the IM baselines compute
	// none, ignore ctx and ran to completion.
	degraded := ctx.Err() != nil && res.Stats.BoundEvals > 0
	if degraded {
		s.m.degradedSolves.Add(1)
	}

	pieces := make([]string, req.Campaign.L())
	for j, p := range req.Campaign.Pieces {
		pieces[j] = p.Name
	}
	sampleMS, indexMS := 0.0, 0.0
	if !outcome.CacheHit() {
		// Miss: the full preparation; extend: only the growth step's
		// sampling and index deltas.
		sampleMS = float64(art.Instance().SampleTime) / float64(time.Millisecond)
		indexMS = float64(art.Instance().IndexTime) / float64(time.Millisecond)
	}
	return &SolveResponse{
		Method:        res.Method,
		Utility:       res.Utility,
		Upper:         res.Upper,
		Plan:          res.Plan.Seeds,
		Pieces:        pieces,
		Theta:         req.Theta,
		K:             req.K,
		SolveMS:       float64(res.Elapsed) / float64(time.Millisecond),
		SampleMS:      sampleMS,
		IndexMS:       indexMS,
		Stats:         res.Stats,
		CacheHit:      outcome.CacheHit(),
		PrefixHit:     outcome == OutcomePrefix,
		Extended:      outcome == OutcomeExtend,
		PreparedTheta: art.Theta(),
		Degraded:      degraded,
	}, nil
}

// ---- plumbing ----

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s requires POST", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.error(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	// A body is one JSON value: only whitespace may follow it.
	if _, err := dec.Token(); err != io.EOF {
		s.error(w, http.StatusBadRequest, errors.New("serve: bad request body: trailing data after the JSON value"))
		return false
	}
	return true
}

func (s *Server) error(w http.ResponseWriter, code int, err error) {
	s.m.requestErrors.Add(1)
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
