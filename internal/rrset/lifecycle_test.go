package rrset

import (
	"math"
	"testing"
)

// indexesEqual asserts two indexes expose bit-identical inverted lists,
// views and estimates.
func indexesEqual(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got.MRR().Theta() != want.MRR().Theta() {
		t.Fatalf("%s: thetas %d vs %d", label, got.MRR().Theta(), want.MRR().Theta())
	}
	if got.PoolSize() != want.PoolSize() {
		t.Fatalf("%s: pool sizes %d vs %d", label, got.PoolSize(), want.PoolSize())
	}
	for j := 0; j < got.MRR().L(); j++ {
		for p := int32(0); int(p) < got.PoolSize(); p++ {
			a, b := got.Samples(j, p), want.Samples(j, p)
			if len(a) != len(b) {
				t.Fatalf("%s: piece %d pos %d: list sizes %d vs %d", label, j, p, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("%s: piece %d pos %d: lists differ at %d: %d vs %d", label, j, p, x, a[x], b[x])
				}
			}
		}
	}
}

// TestIndexExtendFromGolden pins the delta-index contract: after every
// growth step, ExtendFrom over the grown collection is bit-identical to
// a fresh BuildIndex — lists, views and estimates — and earlier indexes
// in the lineage stay frozen at their θ.
func TestIndexExtendFromGolden(t *testing.T) {
	g, probs := randomTestGraph(t, 51, 60, 400)
	m, err := SampleMRR(g, probs, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	pool := []int32{0, 5, 10, 15, 20, 25, 30, 35, 40}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	plan := [][]int32{{0, 10, 30}, {5, 25}}
	prev := ix
	prevTheta := 150
	prevWant, err := prev.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []int{151, 400, 407, 1200} {
		if err := m.ExtendTo(theta); err != nil {
			t.Fatal(err)
		}
		next, err := prev.ExtendFrom(m)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := m.BuildIndex(pool)
		if err != nil {
			t.Fatal(err)
		}
		indexesEqual(t, "extended-vs-fresh", next, fresh)
		gotE, err := next.EstimateAU(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		wantE, err := fresh.EstimateAU(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		if gotE != wantE {
			t.Fatalf("theta=%d: extended estimate %v != fresh %v", theta, gotE, wantE)
		}
		// The previous index in the lineage stays frozen.
		if prev.MRR().Theta() != prevTheta {
			t.Fatalf("previous index theta drifted to %d", prev.MRR().Theta())
		}
		if got, err := prev.EstimateAU(plan, paperModel); err != nil || got != prevWant {
			t.Fatalf("previous index estimate drifted: %v (%v)", got, err)
		}
		prev, prevTheta, prevWant = next, theta, wantE
	}
	// Growth to the current θ returns the receiver.
	same, err := prev.ExtendFrom(m)
	if err != nil {
		t.Fatal(err)
	}
	if same != prev {
		t.Fatal("no-op ExtendFrom allocated a new index")
	}
}

// TestIndexExtendFromRefusals: prefix indexes (shared list storage) and
// mismatched collections must refuse to extend.
func TestIndexExtendFromRefusals(t *testing.T) {
	g, probs := randomTestGraph(t, 52, 40, 200)
	m, err := SampleMRR(g, probs, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := m.BuildIndex([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pix, err := ix.Prefix(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExtendTo(300); err != nil {
		t.Fatal(err)
	}
	if _, err := pix.ExtendFrom(m); err == nil {
		t.Fatal("prefix index accepted ExtendFrom")
	}
	g2, probs2 := randomTestGraph(t, 53, 40, 200)
	m2, err := SampleMRR(g2, probs2, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ExtendFrom(m2); err == nil {
		t.Fatal("index accepted a foreign collection")
	}
	// A collection behind the index's θ is a contract violation, not a
	// silent no-op.
	small := newMRRCollection(m.sub, m.l, m.seed)
	if err := small.ExtendTo(100); err != nil {
		t.Fatal(err)
	}
	big, err := m.BuildIndex([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.ExtendFrom(small); err == nil {
		t.Fatal("index accepted a collection smaller than its theta")
	}
}

// TestIndexMemUsageTracksGrowth: collection and index MemUsage — the
// serve registry's resident_bytes accounting — stay positive and grow
// with the samples.
func TestIndexMemUsageTracksGrowth(t *testing.T) {
	const small, large = 200, 2000
	big, fresh := mrrPair(t, 41, small, large)
	if bb, fb := big.MemUsage(), fresh.MemUsage(); fb <= 0 || bb <= fb {
		t.Fatalf("collection MemUsage: θ=%d %d, θ=%d %d", small, fb, large, bb)
	}
	pool := []int32{0, 2, 4, 6, 8, 10}
	ix, err := big.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	before := ix.MemUsage()
	if before <= 0 {
		t.Fatalf("index MemUsage %d", before)
	}
	if err := big.ExtendTo(2 * large); err != nil {
		t.Fatal(err)
	}
	grown, err := ix.ExtendFrom(big)
	if err != nil {
		t.Fatal(err)
	}
	if grown.MemUsage() <= before {
		t.Fatalf("index growth did not grow accounting: %d -> %d", before, grown.MemUsage())
	}
}

// TestEmptyIndexEstimateErrors closes the remaining empty-θ hole: an
// index over an empty collection must error on estimates (no sample mean
// exists), never return NaN — the guard PR 4 gave EstimateAUScan.
func TestEmptyIndexEstimateErrors(t *testing.T) {
	g, probs := paperExample(t)
	layouts, err := buildLayouts(g, probs)
	if err != nil {
		t.Fatal(err)
	}
	m := emptyGraphMRR(g, layouts, 1)
	ix, err := m.BuildIndex([]int32{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.EstimateAU([][]int32{{0}, {4}}, paperModel)
	if err == nil || math.IsNaN(got) {
		t.Fatalf("empty-index estimate: got (%v, %v), want an explicit error", got, err)
	}
	// The same holds for a one-piece collection's index, and coverage and
	// spread over it stay finite.
	c := newCollection1(layouts[0], 1)
	ix1, err := c.BuildIndex([]int32{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ix1.EstimateAU([][]int32{{0}}, paperModel); err == nil || math.IsNaN(got) {
		t.Fatalf("empty one-piece index estimate: got (%v, %v), want an explicit error", got, err)
	}
	if got := coverage(c, []int32{0}); got != 0 {
		t.Fatalf("empty-collection coverage %d", got)
	}
	if got := spread(c, []int32{0}); got != 0 || math.IsNaN(got) {
		t.Fatalf("empty-collection spread %v", got)
	}
}
