package serve

import (
	"sync/atomic"
	"time"

	"oipa/internal/core"
	"oipa/internal/obs"
)

// metrics is the service's counter block plus its latency histograms.
// Counters are plain atomics and histogram observations are one atomic
// add — cheap enough for every request path to touch — and are exported
// in one consistent snapshot via Server.Metrics (served at /metrics as
// JSON and at /metrics?format=prometheus as text exposition).
type metrics struct {
	solveRequests    atomic.Int64
	estimateRequests atomic.Int64
	simulateRequests atomic.Int64
	jobRequests      atomic.Int64
	requestErrors    atomic.Int64

	inflightSolves  atomic.Int64 // gauge: solves currently executing
	solvesTotal     atomic.Int64
	solveErrors     atomic.Int64
	parallelSolves  atomic.Int64 // solves dispatched with Workers > 1
	coalescedSolves atomic.Int64 // requests served from another identical in-flight solve

	inflightEstimates atomic.Int64 // gauge: estimate scans currently executing
	inflightSimulates atomic.Int64 // gauge: forward simulations currently executing
	sketchEstimates   atomic.Int64 // estimates answered from the bottom-k sketch
	sketchFallbacks   atomic.Int64 // sketch-eligible estimates that fell back to the exact scan
	shedTotal         atomic.Int64 // requests rejected by overload protection (429/503 + Retry-After)
	panicsTotal       atomic.Int64 // panics contained by handler/job/registry recovery
	degradedSolves    atomic.Int64 // deadline-expired solves answered with their incumbent
	slowRequests      atomic.Int64 // requests past the slow-request log threshold
	tracedRequests    atomic.Int64 // requests that carried a span tree (debug or sampled)

	prepares           atomic.Int64 // core.Prepare invocations
	extends            atomic.Int64 // growth steps: delta sampling + Index.ExtendFrom
	indexExtendNS      atomic.Int64 // cumulative ns spent in per-step index work (IndexTime)
	shrinks            atomic.Int64 // governor θ-shrinks (Instance.ShrinkTo republishes)
	reclaimsBackground atomic.Int64 // governor passes started by the timer tick, not a request
	reprepares         atomic.Int64 // poisoned entries rebuilt after a contained mid-growth panic
	instanceHits       atomic.Int64 // exact-θ snapshot served
	prefixHits         atomic.Int64 // θ-prefix of a larger snapshot served
	instanceMisses     atomic.Int64
	singleflightWaits  atomic.Int64 // requests that waited on another's Prepare
	instanceEvictions  atomic.Int64 // LRU (capacity) + governor (bytes) evictions

	jobsSubmitted atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	jobsRejected  atomic.Int64 // queue full

	// Solver-work aggregates, summed over every completed solve (sync
	// and async) so /metrics shows where branch-and-bound effort goes
	// fleet-wide, not just per response.
	solverNodes      atomic.Int64
	solverBoundEvals atomic.Int64
	solverTauEvals   atomic.Int64
	solverSketchEv   atomic.Int64
	solverReVerify   atomic.Int64
	solverSteals     atomic.Int64 // parallel-search expansions stolen across worker shards
	solverSpecWasted atomic.Int64 // speculative expansions pruned before the commit loop used them

	// Latency histograms (lock-free, log-bucketed; see internal/obs):
	// request latency per endpoint class, admission-queue wait, and the
	// registry's artifact phases. Quantiles and bucket arrays surface in
	// the JSON snapshot; the Prometheus exposition emits the full
	// cumulative bucket series.
	latSolve    obs.Histogram
	latEstimate obs.Histogram
	latSimulate obs.Histogram
	latAdmit    obs.Histogram

	phasePrepare obs.Histogram // full preparation (sampling + index build)
	phaseExtend  obs.Histogram // growth step (delta sampling + index delta)
	phaseIndex   obs.Histogram // index work alone (build on prepare, delta on extend)
	phaseShrink  obs.Histogram // governor re-materializations
}

// latency returns the request-latency histogram for an endpoint class
// (nil for classes without one — cheap reads are not histogrammed).
func (m *metrics) latency(endpoint string) *obs.Histogram {
	switch endpoint {
	case "solve":
		return &m.latSolve
	case "estimate":
		return &m.latEstimate
	case "simulate":
		return &m.latSimulate
	}
	return nil
}

// addSolverStats folds one solve's work counters into the aggregates.
func (m *metrics) addSolverStats(st core.SolverStats) {
	m.solverNodes.Add(int64(st.Nodes))
	m.solverBoundEvals.Add(int64(st.BoundEvals))
	m.solverTauEvals.Add(st.TauEvals)
	m.solverSketchEv.Add(st.SketchEvals)
	m.solverReVerify.Add(st.ReVerifyEvals)
	m.solverSteals.Add(st.Steals)
	m.solverSpecWasted.Add(st.SpecWasted)
}

// HistogramStats is the JSON form of one latency histogram: count,
// mean, bucket-derived quantiles (upper-bound estimates, ≤25% relative
// overestimate by the log-linear layout), and the non-empty buckets.
type HistogramStats struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	// Buckets lists the non-empty buckets as (upper bound in ms, raw
	// count) pairs — the full mergeable distribution, not just the
	// quantile summary.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty histogram bucket.
type HistogramBucket struct {
	LeMS  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}

func histStats(h *obs.Histogram) HistogramStats {
	s := h.Snapshot()
	hs := HistogramStats{
		Count:  s.Count,
		MeanMS: float64(s.Mean()) / float64(time.Millisecond),
		P50MS:  float64(s.Quantile(0.50)) / float64(time.Millisecond),
		P95MS:  float64(s.Quantile(0.95)) / float64(time.Millisecond),
		P99MS:  float64(s.Quantile(0.99)) / float64(time.Millisecond),
	}
	for i, c := range s.Counts {
		if c > 0 {
			hs.Buckets = append(hs.Buckets, HistogramBucket{
				LeMS:  float64(obs.BucketBound(i)) / float64(time.Millisecond),
				Count: c,
			})
		}
	}
	return hs
}

// MetricsSnapshot is one consistent-enough read of every service
// counter, shaped for JSON (/metrics). Each
// atomic is loaded exactly once, so two snapshot fields fed by the same
// counter (Solves.Inflight and Server.Inflight.Solve) always agree
// within a snapshot; distinct counters may still straddle in-flight
// updates relative to each other.
type MetricsSnapshot struct {
	Requests struct {
		Solve    int64 `json:"solve"`
		Estimate int64 `json:"estimate"`
		Simulate int64 `json:"simulate"`
		Jobs     int64 `json:"jobs"`
		Errors   int64 `json:"errors"`
	} `json:"requests"`
	Solves struct {
		Inflight int64 `json:"inflight"`
		Total    int64 `json:"total"`
		Errors   int64 `json:"errors"`
		// Parallel counts solves dispatched with solve_workers > 1;
		// Coalesced counts requests that rode an identical in-flight
		// solve instead of searching themselves.
		Parallel  int64 `json:"parallel_solves"`
		Coalesced int64 `json:"coalesced_solves"`
	} `json:"solves"`
	// Server is the robustness block: overload shedding, deadline
	// degradation, contained panics, drain state, and the in-flight
	// gauge per admitted endpoint class.
	Server struct {
		ShedTotal      int64 `json:"shed_total"`
		PanicsTotal    int64 `json:"panics_total"`
		DegradedSolves int64 `json:"degraded_solves"`
		// SketchEstimates counts /v1/estimate responses served from the
		// bottom-k sketch; SketchFallbacks counts sketch-eligible requests
		// that fell back to the exact scan (plan outside the pool, wrong
		// shape, …). Exact-mode requests below the θ gate count as neither.
		SketchEstimates int64 `json:"sketch_estimates"`
		SketchFallbacks int64 `json:"sketch_fallbacks"`
		SlowRequests    int64 `json:"slow_requests"`
		TracedRequests  int64 `json:"traced_requests"`
		AdmitQueued     int   `json:"admit_queued"` // gauge: requests waiting for admission
		Draining        bool  `json:"draining"`
		Inflight        struct {
			Solve    int64 `json:"solve"`
			Estimate int64 `json:"estimate"`
			Simulate int64 `json:"simulate"`
		} `json:"inflight"`
	} `json:"server"`
	// Latency carries the per-endpoint-class request-latency histograms
	// and the admission-queue wait distribution.
	Latency struct {
		Solve     HistogramStats `json:"solve"`
		Estimate  HistogramStats `json:"estimate"`
		Simulate  HistogramStats `json:"simulate"`
		AdmitWait HistogramStats `json:"admit_wait"`
	} `json:"latency"`
	// Solver aggregates core.SolverStats over every completed solve.
	Solver struct {
		Nodes         int64 `json:"nodes"`
		BoundEvals    int64 `json:"bound_evals"`
		TauEvals      int64 `json:"tau_evals"`
		SketchEvals   int64 `json:"sketch_evals"`
		ReVerifyEvals int64 `json:"reverify_evals"`
		Steals        int64 `json:"steals"`
		SpecWasted    int64 `json:"spec_wasted"`
	} `json:"solver"`
	Registry struct {
		Prepares           int64 `json:"prepares"`
		Extends            int64 `json:"extends"`
		IndexExtendNS      int64 `json:"index_extend_ns"`
		Shrinks            int64 `json:"shrinks"`
		ReclaimsBackground int64 `json:"reclaims_background"`
		Reprepares         int64 `json:"reprepares"`
		ResidentBytes      int64 `json:"resident_bytes"` // gauge: accounted artifact bytes
		MemBudget          int64 `json:"mem_budget"`     // configured budget (0 = ungoverned)
		InstanceHits       int64 `json:"instance_hits"`
		PrefixHits         int64 `json:"prefix_hits"`
		InstanceMisses     int64 `json:"instance_misses"`
		SingleflightWaits  int64 `json:"singleflight_waits"`
		InstanceEvictions  int64 `json:"instance_evictions"`
		Instances          int   `json:"instances"`
		LayoutHits         int64 `json:"layout_hits"`
		LayoutMisses       int64 `json:"layout_misses"`
		Layouts            int   `json:"layouts"`
		// LayoutBytes is what the cached layouts hold (pruned reverse
		// arrays, plus forward arrays once a simulation built them);
		// it sits outside ResidentBytes.
		LayoutBytes int64 `json:"layout_bytes"`
		// Phase is the registry's artifact-lifecycle timing: full
		// preparations, growth steps, the index share of both, and
		// governor shrinks.
		Phase struct {
			Prepare HistogramStats `json:"prepare"`
			Extend  HistogramStats `json:"extend"`
			Index   HistogramStats `json:"index"`
			Shrink  HistogramStats `json:"shrink"`
		} `json:"phase"`
	} `json:"registry"`
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
		Rejected  int64 `json:"rejected"`
		Queued    int   `json:"queued"`
	} `json:"jobs"`
	// Runtime is the Go runtime's health block (heap, GC, goroutines),
	// read per scrape.
	Runtime obs.RuntimeStats `json:"runtime"`
}

func (m *metrics) snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.Requests.Solve = m.solveRequests.Load()
	s.Requests.Estimate = m.estimateRequests.Load()
	s.Requests.Simulate = m.simulateRequests.Load()
	s.Requests.Jobs = m.jobRequests.Load()
	s.Requests.Errors = m.requestErrors.Load()
	// One load serves both views of the solve gauge — they must agree
	// within a snapshot.
	inflightSolves := m.inflightSolves.Load()
	s.Solves.Inflight = inflightSolves
	s.Solves.Total = m.solvesTotal.Load()
	s.Solves.Errors = m.solveErrors.Load()
	s.Solves.Parallel = m.parallelSolves.Load()
	s.Solves.Coalesced = m.coalescedSolves.Load()
	s.Server.ShedTotal = m.shedTotal.Load()
	s.Server.PanicsTotal = m.panicsTotal.Load()
	s.Server.DegradedSolves = m.degradedSolves.Load()
	s.Server.SketchEstimates = m.sketchEstimates.Load()
	s.Server.SketchFallbacks = m.sketchFallbacks.Load()
	s.Server.SlowRequests = m.slowRequests.Load()
	s.Server.TracedRequests = m.tracedRequests.Load()
	s.Server.Inflight.Solve = inflightSolves
	s.Server.Inflight.Estimate = m.inflightEstimates.Load()
	s.Server.Inflight.Simulate = m.inflightSimulates.Load()
	s.Latency.Solve = histStats(&m.latSolve)
	s.Latency.Estimate = histStats(&m.latEstimate)
	s.Latency.Simulate = histStats(&m.latSimulate)
	s.Latency.AdmitWait = histStats(&m.latAdmit)
	s.Solver.Nodes = m.solverNodes.Load()
	s.Solver.BoundEvals = m.solverBoundEvals.Load()
	s.Solver.TauEvals = m.solverTauEvals.Load()
	s.Solver.SketchEvals = m.solverSketchEv.Load()
	s.Solver.ReVerifyEvals = m.solverReVerify.Load()
	s.Solver.Steals = m.solverSteals.Load()
	s.Solver.SpecWasted = m.solverSpecWasted.Load()
	s.Registry.Prepares = m.prepares.Load()
	s.Registry.Extends = m.extends.Load()
	s.Registry.IndexExtendNS = m.indexExtendNS.Load()
	s.Registry.Shrinks = m.shrinks.Load()
	s.Registry.ReclaimsBackground = m.reclaimsBackground.Load()
	s.Registry.Reprepares = m.reprepares.Load()
	s.Registry.InstanceHits = m.instanceHits.Load()
	s.Registry.PrefixHits = m.prefixHits.Load()
	s.Registry.InstanceMisses = m.instanceMisses.Load()
	s.Registry.SingleflightWaits = m.singleflightWaits.Load()
	s.Registry.InstanceEvictions = m.instanceEvictions.Load()
	s.Registry.Phase.Prepare = histStats(&m.phasePrepare)
	s.Registry.Phase.Extend = histStats(&m.phaseExtend)
	s.Registry.Phase.Index = histStats(&m.phaseIndex)
	s.Registry.Phase.Shrink = histStats(&m.phaseShrink)
	s.Jobs.Submitted = m.jobsSubmitted.Load()
	s.Jobs.Done = m.jobsDone.Load()
	s.Jobs.Failed = m.jobsFailed.Load()
	s.Jobs.Canceled = m.jobsCanceled.Load()
	s.Jobs.Rejected = m.jobsRejected.Load()
	return s
}
