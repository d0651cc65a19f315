package main

// metricDef declares one reported metric. The tables below are the
// single source of names and units: the contract JSON line, the results
// file, the printed table and -compare all read them, and a test pins
// BENCHMARK.json to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the baseline reading -compare lets it worsen by
	Floor  float64 // end-to-end only: the bound is never tighter than this much, in the metric's unit
	Peak   bool    // end-to-end only: repetitions aggregate by their maximum, not their median
	Exact  bool    // per-layer only: a count that must repeat bit-for-bit for one seed
}

// boundAt is the share of the baseline reading by which the metric may
// worsen before -compare calls it a regression.
func (d metricDef) boundAt(baseline float64) float64 {
	if baseline > 0 && d.Floor/baseline > d.Bound {
		return d.Floor / baseline
	}
	return d.Bound
}

// endToEnd are the metrics a caller of oipa-serve sees, reported for
// every workload. fail_share is carried by the contract's
// attempted/failed pair (it must be 0, and a bounded metric may not be).
//
// The bounds are -compare's and stay at or under 15 %: where the
// repetitions of either file spread wider, the verdict is "unresolved",
// not a wider ruler. BENCHMARK.json carries its own, wider bounds for
// the driver's gate, which has no such verdict (see README.md).
var endToEnd = []metricDef{
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.10, Peak: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.5},
}

// perLayer are the layer metrics of the traced pass, grouped by the
// package that owns the measured code.
var perLayer = []metricDef{
	// graph
	{Name: "graph.layout_build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.layout_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "graph.layout_cache_hit_ns", Unit: "ns", Better: "lower"},
	// traverse
	{Name: "traverse.walk_ns_per_sample", Unit: "ns", Better: "lower"},
	// rrset sampling
	{Name: "rrset.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "rrset.samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rrset.sample_allocs_per_sample", Unit: "count", Better: "lower"},
	{Name: "rrset.sample_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "rrset.rr_nodes_per_sample", Unit: "count", Better: "lower", Exact: true},
	{Name: "rrset.sample_mux1_ms", Unit: "ms", Better: "lower"},
	{Name: "rrset.extend_ms", Unit: "ms", Better: "lower"},
	{Name: "rrset.collection_bytes", Unit: "B", Better: "lower", Exact: true},
	// rrset index / estimators
	{Name: "rrset.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "rrset.index_extend_ms", Unit: "ms", Better: "lower"},
	{Name: "rrset.index_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "rrset.estimate_exact_us", Unit: "us", Better: "lower"},
	{Name: "rrset.sketch_attach_ms", Unit: "ms", Better: "lower"},
	{Name: "rrset.estimate_sketch_us", Unit: "us", Better: "lower"},
	// core
	{Name: "core.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_greedy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_babp_root_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_bab_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_babp_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bab_nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.bound_evals", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.tau_evals", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.ns_per_tau_eval", Unit: "ns", Better: "lower"},
	{Name: "core.solve_allocs", Unit: "count", Better: "lower"},
	{Name: "core.solve_bab_w2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bab_spec_wasted_share", Unit: "ratio", Better: "lower"},
	// serve registry: in-process timings, then /metrics counts of the traced pass
	{Name: "serve.registry_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.registry_extend_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.registry_prefix_us", Unit: "us", Better: "lower"},
	{Name: "serve.registry_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.prepares", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.extends", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.prefix_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.instance_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.instance_evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.layout_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.layout_misses", Unit: "count", Better: "lower", Exact: true},
	// serve HTTP / admission / obs
	{Name: "serve.self_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_admit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_registry_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "serve.handler_solve_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_estimate_us", Unit: "us", Better: "lower"},
	{Name: "serve.json_decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.admit_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.req_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.req_p95_beyond", Unit: "count", Better: "higher"},
	{Name: "serve.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "serve.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	// cascade
	{Name: "cascade.forward_mc_ms", Unit: "ms", Better: "lower"},
}

// value is one reported reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders readings in table order and reports the names the
// readings lack, so a metric can never silently go missing.
func pick(defs []metricDef, readings map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := readings[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}
