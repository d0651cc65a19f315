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
	requestErrors    atomic.Int64

	inflightSolves atomic.Int64 // gauge: admitted solves currently executing
	solvesTotal    atomic.Int64
	solveErrors    atomic.Int64

	inflightEstimates atomic.Int64 // gauge: admitted estimates currently executing
	inflightSimulates atomic.Int64 // gauge: admitted simulations currently executing
	shedTotal         atomic.Int64 // requests rejected by overload protection (429/503 + Retry-After)
	panicsTotal       atomic.Int64 // panics contained by handler/registry recovery
	degradedSolves    atomic.Int64 // deadline-expired solves answered with their incumbent
	slowRequests      atomic.Int64 // requests past the slow-request log threshold
	tracedRequests    atomic.Int64 // requests that carried a span tree (debug or sampled)

	prepares          atomic.Int64 // core.Prepare invocations
	extends           atomic.Int64 // growth steps: delta sampling + Index.ExtendFrom
	indexExtendNS     atomic.Int64 // cumulative ns spent in per-step index work (IndexTime)
	reprepares        atomic.Int64 // poisoned entries rebuilt after a contained mid-growth panic
	instanceHits      atomic.Int64 // exact-θ snapshot served
	prefixHits        atomic.Int64 // θ-prefix of a larger snapshot served
	instanceMisses    atomic.Int64
	singleflightWaits atomic.Int64 // requests that found their entry's first preparation unpublished
	instanceEvictions atomic.Int64 // LRU capacity evictions

	// Solver-work aggregates, summed over every completed solve so
	// /metrics shows where branch-and-bound effort goes fleet-wide, not
	// just per response.
	solverNodes      atomic.Int64
	solverBoundEvals atomic.Int64
	solverTauEvals   atomic.Int64

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
		Errors   int64 `json:"errors"`
	} `json:"requests"`
	Solves struct {
		Inflight int64 `json:"inflight"`
		Total    int64 `json:"total"`
		Errors   int64 `json:"errors"`
		// Coalesced is always 0: every solve runs its own search. It
		// stays only because the benchmark (benchmark/run.go) reads it;
		// the next change to benchmark/ drops it.
		Coalesced int64 `json:"coalesced_solves"`
	} `json:"solves"`
	// Server is the robustness block: overload shedding, deadline
	// degradation, contained panics, drain state, and the in-flight
	// gauge per admitted endpoint class.
	Server struct {
		ShedTotal      int64 `json:"shed_total"`
		PanicsTotal    int64 `json:"panics_total"`
		DegradedSolves int64 `json:"degraded_solves"`
		SlowRequests   int64 `json:"slow_requests"`
		TracedRequests int64 `json:"traced_requests"`
		AdmitQueued    int   `json:"admit_queued"` // gauge: requests waiting for admission
		Draining       bool  `json:"draining"`
		Inflight       struct {
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
		Nodes      int64 `json:"nodes"`
		BoundEvals int64 `json:"bound_evals"`
		TauEvals   int64 `json:"tau_evals"`
	} `json:"solver"`
	Registry struct {
		Prepares          int64 `json:"prepares"`
		Extends           int64 `json:"extends"`
		IndexExtendNS     int64 `json:"index_extend_ns"`
		Reprepares        int64 `json:"reprepares"`
		ResidentBytes     int64 `json:"resident_bytes"` // gauge: accounted artifact bytes
		InstanceHits      int64 `json:"instance_hits"`
		PrefixHits        int64 `json:"prefix_hits"`
		InstanceMisses    int64 `json:"instance_misses"`
		SingleflightWaits int64 `json:"singleflight_waits"`
		InstanceEvictions int64 `json:"instance_evictions"`
		Instances         int   `json:"instances"`
		LayoutHits        int64 `json:"layout_hits"`
		LayoutMisses      int64 `json:"layout_misses"`
		Layouts           int   `json:"layouts"`
		// Layouts and LayoutBytes count the live piece layouts — those a
		// cached instance or a request in flight holds — and what they
		// hold (their pruned reverse arrays; /v1/simulate reads no
		// layout); the bytes sit outside ResidentBytes.
		LayoutBytes int64 `json:"layout_bytes"`
		// Phase is the registry's artifact-lifecycle timing: full
		// preparations, growth steps and the index share of both.
		Phase struct {
			Prepare HistogramStats `json:"prepare"`
			Extend  HistogramStats `json:"extend"`
			Index   HistogramStats `json:"index"`
		} `json:"phase"`
	} `json:"registry"`
	// Runtime is the Go runtime's health block (heap, GC, goroutines),
	// read per scrape.
	Runtime obs.RuntimeStats `json:"runtime"`
}

func (m *metrics) snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.Requests.Solve = m.solveRequests.Load()
	s.Requests.Estimate = m.estimateRequests.Load()
	s.Requests.Simulate = m.simulateRequests.Load()
	s.Requests.Errors = m.requestErrors.Load()
	// One load serves both views of the solve gauge — they must agree
	// within a snapshot.
	inflightSolves := m.inflightSolves.Load()
	s.Solves.Inflight = inflightSolves
	s.Solves.Total = m.solvesTotal.Load()
	s.Solves.Errors = m.solveErrors.Load()
	s.Server.ShedTotal = m.shedTotal.Load()
	s.Server.PanicsTotal = m.panicsTotal.Load()
	s.Server.DegradedSolves = m.degradedSolves.Load()
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
	s.Registry.Prepares = m.prepares.Load()
	s.Registry.Extends = m.extends.Load()
	s.Registry.IndexExtendNS = m.indexExtendNS.Load()
	s.Registry.Reprepares = m.reprepares.Load()
	s.Registry.InstanceHits = m.instanceHits.Load()
	s.Registry.PrefixHits = m.prefixHits.Load()
	s.Registry.InstanceMisses = m.instanceMisses.Load()
	s.Registry.SingleflightWaits = m.singleflightWaits.Load()
	s.Registry.InstanceEvictions = m.instanceEvictions.Load()
	s.Registry.Phase.Prepare = histStats(&m.phasePrepare)
	s.Registry.Phase.Extend = histStats(&m.phaseExtend)
	s.Registry.Phase.Index = histStats(&m.phaseIndex)
	return s
}
