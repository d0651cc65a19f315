package rrset

import (
	"math"
	"runtime"
	"testing"

	"oipa/internal/graph"
)

// flipLayout returns a copy of lay with uniformity detection defeated:
// every node is marked mixed, so the sampler takes the per-edge-flip path
// everywhere. The flip path is the reference implementation the
// geometric-skip path must match in distribution.
func flipLayout(lay *graph.PieceLayout) *graph.PieceLayout {
	cp := *lay
	cp.InDist = append([]graph.NodeDist(nil), lay.InDist...)
	cp.OutDist = append([]graph.NodeDist(nil), lay.OutDist...)
	for v := range cp.InDist {
		cp.InDist[v] = graph.NodeDist{Uniform: -1}
		cp.OutDist[v] = graph.NodeDist{Uniform: -1}
	}
	return &cp
}

// TestGeoSkipMatchesFlipSpread cross-checks the two sampling strategies:
// at matched theta, geometric-skip and per-edge-flip collections must
// produce statistically identical RR sets — same average set size, same
// spread estimates — on a WC-weighted graph where every node takes the
// geometric path.
func TestGeoSkipMatchesFlipSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check skipped in -short mode")
	}
	g, probs := wcGraph(t, 11, 3000, 45000)
	lay, err := g.Layout(probs[0])
	if err != nil {
		t.Fatal(err)
	}
	const theta = 40000
	geo := newCollection1(lay, 5)
	extend(t, geo, theta)
	flip := newCollection1(flipLayout(lay), 5)
	extend(t, flip, theta)

	// Mean RR-set size is a tight functional of the sampling distribution.
	geoSize := float64(geo.TotalSize()) / theta
	flipSize := float64(flip.TotalSize()) / theta
	if rel := math.Abs(geoSize-flipSize) / flipSize; rel > 0.05 {
		t.Fatalf("mean set size: geoskip %.3f vs flip %.3f (rel %.3f)", geoSize, flipSize, rel)
	}

	for _, seeds := range [][]int32{{0}, {1, 2, 3}, {10, 100, 1000, 2000, 2999}} {
		ge := spread(geo, seeds)
		fe := spread(flip, seeds)
		// Spreads are Monte-Carlo estimates from independent streams;
		// compare with a tolerance scaled to the estimate.
		tol := 0.08*fe + 0.5
		if math.Abs(ge-fe) > tol {
			t.Fatalf("spread of %v: geoskip %.3f vs flip %.3f", seeds, ge, fe)
		}
	}
}

// TestGeoSkipMatchesFlipAU runs the same cross-check through the MRR
// adoption-utility estimator.
func TestGeoSkipMatchesFlipAU(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check skipped in -short mode")
	}
	g, probs := wcGraph(t, 13, 2000, 30000)
	layouts := make([]*graph.PieceLayout, len(probs))
	flips := make([]*graph.PieceLayout, len(probs))
	for j := range probs {
		lay, err := g.Layout(probs[j])
		if err != nil {
			t.Fatal(err)
		}
		layouts[j] = lay
		flips[j] = flipLayout(lay)
	}
	const theta = 30000
	geo, err := SampleMRRLayouts(g, layouts, theta, 9)
	if err != nil {
		t.Fatal(err)
	}
	flip, err := SampleMRRLayouts(g, flips, theta, 9)
	if err != nil {
		t.Fatal(err)
	}
	plan := [][]int32{{0, 5, 17}, {1, 99}}
	ge, err := geo.EstimateAUScan(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := flip.EstimateAUScan(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if tol := 0.08*fe + 0.5; math.Abs(ge-fe) > tol {
		t.Fatalf("AU: geoskip %.3f vs flip %.3f", ge, fe)
	}
}

// TestWorkStealingScheduleInvariance pins the determinism contract of the
// work-stealing engine: the collection contents must be bit-identical
// across worker counts (including counts that do not divide the block
// count) and across repeated runs at the same parallelism.
func TestWorkStealingScheduleInvariance(t *testing.T) {
	g, probs := wcGraph(t, 17, 500, 6000)
	lay, err := g.Layout(probs[0])
	if err != nil {
		t.Fatal(err)
	}
	const theta = 1000 // 15 full blocks of 64 plus a 40-sample tail
	sample := func(workers int) *MRRCollection {
		old := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(old)
		c := newCollection1(lay, 23)
		extend(t, c, theta)
		return c
	}
	ref := sample(1)
	for _, workers := range []int{2, 3, 7, 7} {
		got := sample(workers)
		if got.TotalSize() != ref.TotalSize() {
			t.Fatalf("workers=%d: total size %d, want %d", workers, got.TotalSize(), ref.TotalSize())
		}
		for i := 0; i < theta; i++ {
			if got.Root(i) != ref.Root(i) {
				t.Fatalf("workers=%d: root %d differs", workers, i)
			}
			a, b := got.Set(i, 0), ref.Set(i, 0)
			if len(a) != len(b) {
				t.Fatalf("workers=%d: set %d sizes differ", workers, i)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("workers=%d: set %d differs at %d", workers, i, k)
				}
			}
		}
	}
}

// TestWorkStealingScheduleInvarianceMRR is the MRR analogue, at a theta
// that does not divide evenly into blocks.
func TestWorkStealingScheduleInvarianceMRR(t *testing.T) {
	g, probs := wcGraph(t, 19, 400, 4800)
	const theta = 700
	sample := func(workers int) *MRRCollection {
		old := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(old)
		m, err := SampleMRR(g, probs, theta, 31)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := sample(1)
	for _, workers := range []int{2, 5} {
		got := sample(workers)
		for i := 0; i < theta; i++ {
			for j := 0; j < ref.L(); j++ {
				a, b := got.Set(i, j), ref.Set(i, j)
				if len(a) != len(b) {
					t.Fatalf("workers=%d: sample %d piece %d sizes differ", workers, i, j)
				}
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("workers=%d: sample %d piece %d differs", workers, i, j)
					}
				}
			}
		}
	}
}
