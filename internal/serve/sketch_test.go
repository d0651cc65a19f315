package serve

import (
	"math"
	"net/http/httptest"
	"runtime"
	"testing"
)

// sketchTestPlan builds a pool-member plan for an l-piece campaign (the
// shape the sketch estimator accepts) from the server's pool.
func sketchTestPlan(s *Server, l int) [][]int32 {
	plan := make([][]int32, l)
	for j := range plan {
		plan[j] = []int32{s.cfg.Pool[j], s.cfg.Pool[j+l]}
	}
	return plan
}

// offPoolNode returns a graph node outside the server's promoter pool —
// a seed the exact scan accepts but the sketch (pool-indexed) refuses.
func offPoolNode(t *testing.T, s *Server) int32 {
	t.Helper()
	inPool := map[int32]bool{}
	for _, p := range s.cfg.Pool {
		inPool[p] = true
	}
	for v := int32(0); int(v) < s.g.N(); v++ {
		if !inPool[v] {
			return v
		}
	}
	t.Fatal("pool covers the whole graph")
	return -1
}

// TestEstimateSketchMode drives /v1/estimate through the three sketch
// regimes — sketch-served, fallback (off-pool seed), and below the θ
// gate — and pins the estimate_mode labels and the
// sketch_estimates/sketch_fallbacks counter split.
func TestEstimateSketchMode(t *testing.T) {
	s := testServer(t, func(c *Config) { c.SketchK = 32 }) // gate: θ >= 256
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	campaign := testCampaign(0, 1)
	plan := sketchTestPlan(s, 2)

	// Eligible θ, pool-member plan: served from the sketch.
	var sk EstimateResponse
	if code, body := postJSON(t, ts, "/v1/estimate", EstimateRequest{
		Campaign: campaign, Plan: plan, Theta: 2000,
	}, &sk); code != 200 {
		t.Fatalf("sketch estimate: %d %s", code, body)
	}
	if sk.EstimateMode != "sketch" {
		t.Fatalf("estimate_mode = %q, want sketch", sk.EstimateMode)
	}
	if sk.Utility <= 0 || math.IsNaN(sk.Utility) || math.IsInf(sk.Utility, 0) {
		t.Fatalf("sketch utility %v", sk.Utility)
	}

	// Same plan through the exact scan (below the gate, same samples via
	// prefix): the sketch estimate must land in the right neighborhood.
	var exact EstimateResponse
	if code, body := postJSON(t, ts, "/v1/estimate", EstimateRequest{
		Campaign: campaign, Plan: plan, Theta: 200,
	}, &exact); code != 200 {
		t.Fatalf("exact estimate: %d %s", code, body)
	}
	if exact.EstimateMode != "exact" {
		t.Fatalf("below-gate estimate_mode = %q, want exact", exact.EstimateMode)
	}
	if math.Abs(sk.Utility-exact.Utility) > 0.5*math.Max(1, exact.Utility) {
		t.Fatalf("sketch utility %v far from exact-scan ballpark %v", sk.Utility, exact.Utility)
	}

	// Off-pool seed at eligible θ: the sketch refuses, the exact scan
	// (which accepts any graph node) answers, the fallback is counted.
	bad := [][]int32{{offPoolNode(t, s)}, {s.cfg.Pool[0]}}
	var fb EstimateResponse
	if code, body := postJSON(t, ts, "/v1/estimate", EstimateRequest{
		Campaign: campaign, Plan: bad, Theta: 2000,
	}, &fb); code != 200 {
		t.Fatalf("fallback estimate: %d %s", code, body)
	}
	if fb.EstimateMode != "exact" {
		t.Fatalf("fallback estimate_mode = %q, want exact", fb.EstimateMode)
	}

	snap := s.Metrics()
	if snap.Server.SketchEstimates != 1 {
		t.Fatalf("sketch_estimates = %d, want 1", snap.Server.SketchEstimates)
	}
	if snap.Server.SketchFallbacks != 1 {
		t.Fatalf("sketch_fallbacks = %d, want 1", snap.Server.SketchFallbacks)
	}
}

// TestEstimateSketchDisabled pins that a server without SketchK never
// labels a response "sketch" and never touches the sketch counters.
func TestEstimateSketchDisabled(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var resp EstimateResponse
	if code, body := postJSON(t, ts, "/v1/estimate", EstimateRequest{
		Campaign: testCampaign(0, 1), Plan: sketchTestPlan(s, 2), Theta: 2000,
	}, &resp); code != 200 {
		t.Fatalf("estimate: %d %s", code, body)
	}
	if resp.EstimateMode != "exact" {
		t.Fatalf("estimate_mode = %q, want exact", resp.EstimateMode)
	}
	snap := s.Metrics()
	if snap.Server.SketchEstimates != 0 || snap.Server.SketchFallbacks != 0 {
		t.Fatalf("sketch counters moved on a sketchless server: %+v", snap.Server)
	}
}

// TestResidentBytesWithSketches pins the resident-gauge accounting
// around sketches and θ-prefixes: sketch bytes are accounted (a sketched
// artifact is strictly bigger than the same artifact without sketches),
// and serving prefix requests — whose derived indexes own nothing —
// leaves the gauge untouched (the double-count regression).
func TestResidentBytesWithSketches(t *testing.T) {
	// One sampling worker: with several, which shard a block lands in —
	// and so the arenas' append slack, a few KB either way — varies run to
	// run by more than the sketches weigh.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prepare := func(s *Server) int64 {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var resp EstimateResponse
		if code, body := postJSON(t, ts, "/v1/estimate", EstimateRequest{
			Campaign: testCampaign(0, 1), Plan: sketchTestPlan(s, 2), Theta: 2000,
		}, &resp); code != 200 {
			t.Fatalf("estimate: %d %s", code, body)
		}
		resident := s.Registry().ResidentBytes()
		if resident <= 0 {
			t.Fatalf("resident_bytes = %d after a preparation", resident)
		}
		// A θ-prefix request serves a derived view that owns no bytes;
		// the gauge must not move.
		if code, body := postJSON(t, ts, "/v1/estimate", EstimateRequest{
			Campaign: testCampaign(0, 1), Plan: sketchTestPlan(s, 2), Theta: 500,
		}, &resp); code != 200 {
			t.Fatalf("prefix estimate: %d %s", code, body)
		}
		if !resp.PrefixHit {
			t.Fatal("θ=500 request was not served as a prefix")
		}
		if got := s.Registry().ResidentBytes(); got != resident {
			t.Fatalf("prefix request moved resident_bytes: %d -> %d", resident, got)
		}
		return resident
	}
	plain := prepare(testServer(t, nil))
	sketched := prepare(testServer(t, func(c *Config) { c.SketchK = 32 }))
	if sketched <= plain {
		t.Fatalf("sketched resident %d not above plain %d (sketch bytes unaccounted)", sketched, plain)
	}
}
