package rrset

import (
	"math"
	"sync"
	"testing"
)

// mrrPair samples the same (graph, layouts, seed) twice: one large
// collection and one fresh small one, for prefix bit-identity checks.
func mrrPair(t testing.TB, seed uint64, small, large int) (*MRRCollection, *MRRCollection) {
	t.Helper()
	g, probs := randomTestGraph(t, seed, 80, 500)
	big, err := SampleMRR(g, probs, large, seed)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := SampleMRR(g, probs, small, seed)
	if err != nil {
		t.Fatal(err)
	}
	return big, fresh
}

// TestMRRViewPrefixBitIdentical pins the θ-prefix contract: the prefix
// of a large view exposes exactly the sets of a collection freshly
// sampled to θ, and every estimate over it is bit-identical.
func TestMRRViewPrefixBitIdentical(t *testing.T) {
	const small, large = 300, 1200
	big, fresh := mrrPair(t, 11, small, large)
	pv, err := big.View().Prefix(small)
	if err != nil {
		t.Fatal(err)
	}
	fv := fresh.View()
	if pv.Theta() != small || fv.Theta() != small {
		t.Fatalf("thetas %d/%d, want %d", pv.Theta(), fv.Theta(), small)
	}
	for i := 0; i < small; i++ {
		if pv.Root(i) != fv.Root(i) {
			t.Fatalf("sample %d: roots %d vs %d", i, pv.Root(i), fv.Root(i))
		}
		for j := 0; j < pv.L(); j++ {
			a, b := pv.Set(i, j), fv.Set(i, j)
			if len(a) != len(b) {
				t.Fatalf("sample %d piece %d: sizes %d vs %d", i, j, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("sample %d piece %d differs", i, j)
				}
			}
		}
	}
	plan := [][]int32{{0, 3, 17}, {5, 9}}
	got, err := pv.EstimateAUScan(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fv.EstimateAUScan(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("prefix scan %v != fresh scan %v", got, want)
	}
	est := pv.NewEstimator()
	gotE, err := est.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if gotE != want {
		t.Fatalf("prefix estimator %v != fresh scan %v", gotE, want)
	}
	// EstimateAUPrefix over the FULL view bounds to the same result.
	full := big.View().NewEstimator()
	gotP, err := full.EstimateAUPrefix(plan, paperModel, small)
	if err != nil {
		t.Fatal(err)
	}
	if gotP != want {
		t.Fatalf("EstimateAUPrefix %v != fresh scan %v", gotP, want)
	}
}

// TestViewPrefixCollection covers MRRView.Prefix on a one-piece
// collection: a prefix view's spread and coverage are a fresh θ-sized
// collection's.
func TestViewPrefixCollection(t *testing.T) {
	g, probs := randomTestGraph(t, 5, 60, 350)
	big, err := newCollectionProbs(g, probs[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, big, 800)
	fresh, err := newCollectionProbs(g, probs[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, fresh, 200)
	pv, err := big.View().Prefix(200)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int32{2, 7, 31}
	if got, want := spread(pv, seeds), spread(fresh, seeds); got != want {
		t.Fatalf("prefix spread %v != fresh spread %v", got, want)
	}
	if got, want := coverage(pv, seeds), coverage(fresh, seeds); got != want {
		t.Fatalf("prefix coverage %d != fresh coverage %d", got, want)
	}
}

// TestIndexPrefixMatchesFreshIndex pins the prefix-bounded inverted
// lists: Samples/Degree/EstimateAU of a prefix index equal an index
// freshly built over a θ-sample collection.
func TestIndexPrefixMatchesFreshIndex(t *testing.T) {
	const small, large = 250, 1000
	big, fresh := mrrPair(t, 23, small, large)
	pool := []int32{1, 4, 9, 16, 25, 36, 49, 64}
	bigIx, err := big.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	freshIx, err := fresh.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	pix, err := bigIx.Prefix(small)
	if err != nil {
		t.Fatal(err)
	}
	if pix.MRR().Theta() != small {
		t.Fatalf("prefix index view theta %d, want %d", pix.MRR().Theta(), small)
	}
	for j := 0; j < big.L(); j++ {
		for p := int32(0); int(p) < len(pool); p++ {
			a, b := pix.Samples(j, p), freshIx.Samples(j, p)
			if len(a) != len(b) {
				t.Fatalf("piece %d pos %d: list sizes %d vs %d", j, p, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("piece %d pos %d: lists differ", j, p)
				}
			}
			if pix.Degree(j, p) != freshIx.Degree(j, p) {
				t.Fatalf("piece %d pos %d: degrees differ", j, p)
			}
		}
	}
	plan := [][]int32{{1, 9}, {4, 25, 64}}
	got, err := pix.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshIx.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("prefix index estimate %v != fresh index estimate %v", got, want)
	}
	// Oversized scratch (the evaluator-pool regime after a growth step)
	// yields the same bits.
	gotBig, err := pix.EstimateAUWith(plan, paperModel, bigIx.NewAUScratch())
	if err != nil {
		t.Fatal(err)
	}
	if gotBig != want {
		t.Fatalf("prefix estimate with oversized scratch %v != %v", gotBig, want)
	}
	// The full index is untouched by prefix derivation.
	if bigIx.MRR().Theta() != large {
		t.Fatalf("full index theta drifted to %d", bigIx.MRR().Theta())
	}
}

// TestIndexDoublePrefix pins Prefix(Prefix(ix)): the twice-derived index
// shares the *original* full lists with a smaller limit, and behaves
// bit-identically to an index freshly built at the inner θ — Samples,
// Degree, and estimates — while ExtendFrom refuses on both prefix levels.
func TestIndexDoublePrefix(t *testing.T) {
	const inner, outer, large = 200, 600, 1000
	big, fresh := mrrPair(t, 31, inner, large)
	pool := []int32{1, 4, 9, 16, 25, 36, 49, 64}
	bigIx, err := big.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	freshIx, err := fresh.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := bigIx.Prefix(outer)
	if err != nil {
		t.Fatal(err)
	}
	pix, err := mid.Prefix(inner)
	if err != nil {
		t.Fatal(err)
	}
	if pix.MRR().Theta() != inner {
		t.Fatalf("double-prefix view theta %d, want %d", pix.MRR().Theta(), inner)
	}
	// The derived lists alias the original full index's storage.
	if &pix.lists[0] != &bigIx.lists[0] {
		t.Fatal("double-prefix does not share the original lists")
	}
	for j := 0; j < big.L(); j++ {
		for p := int32(0); int(p) < len(pool); p++ {
			a, b := pix.Samples(j, p), freshIx.Samples(j, p)
			if len(a) != len(b) {
				t.Fatalf("piece %d pos %d: list sizes %d vs %d", j, p, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("piece %d pos %d: lists differ", j, p)
				}
			}
			if pix.Degree(j, p) != freshIx.Degree(j, p) {
				t.Fatalf("piece %d pos %d: degrees differ", j, p)
			}
		}
	}
	plan := [][]int32{{1, 9}, {4, 25, 64}}
	got, err := pix.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshIx.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("double-prefix estimate %v != fresh index estimate %v", got, want)
	}
	// Growth must refuse on both derivation levels.
	if _, err := mid.ExtendFrom(big); err == nil {
		t.Fatal("ExtendFrom on a prefix index did not refuse")
	}
	if _, err := pix.ExtendFrom(big); err == nil {
		t.Fatal("ExtendFrom on a double-prefix index did not refuse")
	}
	// And the lineage above is untouched.
	if bigIx.MRR().Theta() != large || mid.MRR().Theta() != outer {
		t.Fatalf("lineage thetas drifted: %d/%d", bigIx.MRR().Theta(), mid.MRR().Theta())
	}
}

func TestPrefixValidation(t *testing.T) {
	g, probs := randomTestGraph(t, 3, 40, 200)
	m, err := SampleMRR(g, probs, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := m.View()
	for _, theta := range []int{0, -5, 101} {
		if _, err := v.Prefix(theta); err == nil {
			t.Fatalf("Prefix(%d) accepted", theta)
		}
	}
	same, err := v.Prefix(100)
	if err != nil {
		t.Fatal(err)
	}
	if same != v {
		t.Fatal("full-theta prefix allocated a new view")
	}
	ix, err := m.BuildIndex([]int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Prefix(0); err == nil {
		t.Fatal("Index.Prefix(0) accepted")
	}
	sameIx, err := ix.Prefix(100)
	if err != nil {
		t.Fatal(err)
	}
	if sameIx != ix {
		t.Fatal("full-theta index prefix allocated a new index")
	}
	if _, err := v.NewEstimator().EstimateAUPrefix([][]int32{{0}, {1}}, paperModel, 500); err == nil {
		t.Fatal("EstimateAUPrefix beyond the view accepted")
	}
}

// TestEmptyCollectionEstimates is the NaN regression test: estimates
// over an empty collection report 0 (spread) or an explicit error (AU
// scan), never NaN — one-piece and multi-piece alike.
func TestEmptyCollectionEstimates(t *testing.T) {
	g, probs := paperExample(t)
	c, err := newCollectionProbs(g, probs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := spread(c, []int32{0}); got != 0 || math.IsNaN(got) {
		t.Fatalf("empty-collection spread = %v, want 0", got)
	}
	if got := spread(c.View(), []int32{0}); got != 0 {
		t.Fatalf("empty-view spread = %v, want 0", got)
	}
	if got, err := c.EstimateAUScan([][]int32{{0}}, paperModel); err == nil || math.IsNaN(got) {
		t.Fatalf("empty one-piece AU scan: got (%v, %v), want an explicit error", got, err)
	}
	layouts, err := buildLayouts(g, probs)
	if err != nil {
		t.Fatal(err)
	}
	m := emptyGraphMRR(g, layouts, 1)
	if got, err := m.EstimateAUScan([][]int32{{0}, {1}}, paperModel); err == nil || math.IsNaN(got) {
		t.Fatalf("empty-collection AU scan: got (%v, %v), want an explicit error", got, err)
	}
	if got, err := m.View().EstimateAUScan([][]int32{{0}, {1}}, paperModel); err == nil || math.IsNaN(got) {
		t.Fatalf("empty-view AU scan: got (%v, %v), want an explicit error", got, err)
	}
}

// TestPrefixViewStableUnderConcurrentGrowth hammers AUEstimators over a
// prefix view while the parent collection is concurrently ExtendTo-grown
// and re-indexed — the serve registry's read-while-grow pattern. Views
// are frozen snapshots over append-only shard arenas, so every scan must
// return the same bits throughout; run under -race this is the growth
// path's storage-level canary.
func TestPrefixViewStableUnderConcurrentGrowth(t *testing.T) {
	g, probs := randomTestGraph(t, 77, 60, 400)
	m, err := SampleMRR(g, probs, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := []int32{0, 5, 10, 15, 20, 25, 30}
	if _, err := m.BuildIndex(pool); err != nil {
		t.Fatal(err)
	}
	view := m.View()
	prefix, err := view.Prefix(150)
	if err != nil {
		t.Fatal(err)
	}
	plan := [][]int32{{0, 10, 20}, {5, 25}}
	wantPrefix, err := prefix.NewEstimator().EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := view.NewEstimator().EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One estimator per goroutine over the SHARED views.
			pe := prefix.NewEstimator()
			fe := view.NewEstimator()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := pe.EstimateAU(plan, paperModel)
				if err != nil {
					t.Error(err)
					return
				}
				if got != wantPrefix {
					t.Errorf("prefix estimate drifted: %v != %v", got, wantPrefix)
					return
				}
				gotF, err := fe.EstimateAU(plan, paperModel)
				if err != nil {
					t.Error(err)
					return
				}
				if gotF != wantFull {
					t.Errorf("full-view estimate drifted: %v != %v", gotF, wantFull)
					return
				}
			}
		}()
	}
	// Writer: grow and re-index the parent collection repeatedly.
	for theta := 800; theta <= 3200; theta += 800 {
		if err := m.ExtendTo(theta); err != nil {
			t.Error(err)
			break
		}
		if _, err := m.BuildIndex(pool); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if m.Theta() != 3200 {
		t.Fatalf("collection grew to %d, want 3200", m.Theta())
	}
}
