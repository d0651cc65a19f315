package serve

import (
	"io"
	"time"

	"oipa/internal/obs"
)

// writePrometheus renders the full metrics surface — every counter and
// gauge of the JSON snapshot plus the latency/phase histograms — in the
// Prometheus text exposition format, so the service is scrapeable
// without a sidecar. Counters and gauges come from the snapshot (one
// consistent read); histograms are snapshotted here from the live
// atomics, which is the same consistency story every field already has.
func (s *Server) writePrometheus(w io.Writer) error {
	snap := s.Metrics()
	pw := obs.NewPromWriter(w)

	pw.Counter("oipa_requests_total", "Requests received, by endpoint class.", `endpoint="solve"`, float64(snap.Requests.Solve))
	pw.Counter("oipa_requests_total", "", `endpoint="estimate"`, float64(snap.Requests.Estimate))
	pw.Counter("oipa_requests_total", "", `endpoint="simulate"`, float64(snap.Requests.Simulate))
	pw.Counter("oipa_request_errors_total", "Requests answered with an error status.", "", float64(snap.Requests.Errors))

	pw.Counter("oipa_solves_total", "Solver executions.", "", float64(snap.Solves.Total))
	pw.Counter("oipa_solve_errors_total", "Solver executions that failed.", "", float64(snap.Solves.Errors))
	pw.Gauge("oipa_inflight_requests", "Admitted requests currently executing, by endpoint class.", `endpoint="solve"`, float64(snap.Server.Inflight.Solve))
	pw.Gauge("oipa_inflight_requests", "", `endpoint="estimate"`, float64(snap.Server.Inflight.Estimate))
	pw.Gauge("oipa_inflight_requests", "", `endpoint="simulate"`, float64(snap.Server.Inflight.Simulate))

	pw.Counter("oipa_shed_total", "Requests rejected by overload protection.", "", float64(snap.Server.ShedTotal))
	pw.Counter("oipa_panics_total", "Panics contained by handler/registry recovery.", "", float64(snap.Server.PanicsTotal))
	pw.Counter("oipa_degraded_solves_total", "Deadline-expired solves answered with their incumbent.", "", float64(snap.Server.DegradedSolves))
	pw.Counter("oipa_slow_requests_total", "Requests slower than the slow-request threshold.", "", float64(snap.Server.SlowRequests))
	pw.Counter("oipa_traced_requests_total", "Requests that carried a span tree (debug or sampled).", "", float64(snap.Server.TracedRequests))
	pw.Gauge("oipa_admit_queued", "Requests waiting in the admission queue.", "", float64(snap.Server.AdmitQueued))
	pw.Gauge("oipa_draining", "1 while the server is draining.", "", boolGauge(snap.Server.Draining))

	pw.Counter("oipa_solver_nodes_total", "Branch-and-bound nodes expanded.", "", float64(snap.Solver.Nodes))
	pw.Counter("oipa_solver_bound_evals_total", "Bound computations.", "", float64(snap.Solver.BoundEvals))
	pw.Counter("oipa_solver_tau_evals_total", "Candidate marginal-gain evaluations.", "", float64(snap.Solver.TauEvals))

	pw.Counter("oipa_registry_prepares_total", "Full artifact preparations.", "", float64(snap.Registry.Prepares))
	pw.Counter("oipa_registry_extends_total", "Incremental growth steps.", "", float64(snap.Registry.Extends))
	pw.Counter("oipa_registry_index_extend_seconds_total", "Cumulative index-delta time across growth steps.", "", float64(snap.Registry.IndexExtendNS)/float64(time.Second))
	pw.Counter("oipa_registry_reprepares_total", "Poisoned entries rebuilt after a contained panic.", "", float64(snap.Registry.Reprepares))
	pw.Gauge("oipa_registry_resident_bytes", "Accounted bytes of published artifacts.", "", float64(snap.Registry.ResidentBytes))
	pw.Counter("oipa_registry_instance_hits_total", "Requests served from a published snapshot.", `kind="exact"`, float64(snap.Registry.InstanceHits))
	pw.Counter("oipa_registry_instance_hits_total", "", `kind="prefix"`, float64(snap.Registry.PrefixHits))
	pw.Counter("oipa_registry_instance_misses_total", "Requests that triggered a preparation.", "", float64(snap.Registry.InstanceMisses))
	pw.Counter("oipa_registry_singleflight_waits_total", "Requests that waited on another's preparation.", "", float64(snap.Registry.SingleflightWaits))
	pw.Counter("oipa_registry_instance_evictions_total", "Entries evicted by LRU capacity.", "", float64(snap.Registry.InstanceEvictions))
	pw.Gauge("oipa_registry_instances", "Cached (or in-flight) artifact entries.", "", float64(snap.Registry.Instances))
	pw.Counter("oipa_layout_cache_hits_total", "Piece-layout cache hits.", "", float64(snap.Registry.LayoutHits))
	pw.Counter("oipa_layout_cache_misses_total", "Piece-layout cache misses.", "", float64(snap.Registry.LayoutMisses))
	pw.Gauge("oipa_layout_cache_entries", "Live piece layouts (held by a cached instance or a request in flight).", "", float64(snap.Registry.Layouts))
	pw.Gauge("oipa_layout_cache_bytes", "Bytes held by live piece layouts (not part of resident_bytes).", "", float64(snap.Registry.LayoutBytes))

	pw.Histogram("oipa_request_latency_seconds", "Request latency by endpoint class.", `endpoint="solve"`, s.m.latSolve.Snapshot())
	pw.Histogram("oipa_request_latency_seconds", "", `endpoint="estimate"`, s.m.latEstimate.Snapshot())
	pw.Histogram("oipa_request_latency_seconds", "", `endpoint="simulate"`, s.m.latSimulate.Snapshot())
	pw.Histogram("oipa_admission_wait_seconds", "Time admitted requests spent waiting for a slot.", "", s.m.latAdmit.Snapshot())
	pw.Histogram("oipa_registry_phase_seconds", "Registry artifact-lifecycle phase durations.", `phase="prepare"`, s.m.phasePrepare.Snapshot())
	pw.Histogram("oipa_registry_phase_seconds", "", `phase="extend"`, s.m.phaseExtend.Snapshot())
	pw.Histogram("oipa_registry_phase_seconds", "", `phase="index"`, s.m.phaseIndex.Snapshot())

	pw.Gauge("oipa_go_goroutines", "Goroutines.", "", float64(snap.Runtime.Goroutines))
	pw.Gauge("oipa_go_heap_alloc_bytes", "Live heap bytes.", "", float64(snap.Runtime.HeapAllocBytes))
	pw.Gauge("oipa_go_heap_sys_bytes", "Heap address space obtained from the OS.", "", float64(snap.Runtime.HeapSysBytes))
	pw.Gauge("oipa_go_heap_objects", "Live heap objects.", "", float64(snap.Runtime.HeapObjects))
	pw.Gauge("oipa_go_next_gc_bytes", "Heap goal of the next GC cycle.", "", float64(snap.Runtime.NextGCBytes))
	pw.Counter("oipa_go_gc_cycles_total", "Completed GC cycles.", "", float64(snap.Runtime.GCCycles))
	pw.Counter("oipa_go_gc_pause_seconds_total", "Cumulative stop-the-world pause time.", "", snap.Runtime.GCPauseTotalMS/1e3)

	return pw.Err()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
