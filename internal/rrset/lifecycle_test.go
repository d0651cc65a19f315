package rrset

import (
	"math"
	"sync"
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
	small, err := m.ShrinkTo(100)
	if err != nil {
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

// TestShrinkToBitIdentical pins the shrink contract: a shrunk collection
// is bit-identical to one freshly sampled at θ — sets, roots, estimates,
// index — and regrowing it reproduces the exact samples it shed.
func TestShrinkToBitIdentical(t *testing.T) {
	const small, large = 250, 900
	big, fresh := mrrPair(t, 31, small, large)
	shrunk, err := big.ShrinkTo(small)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Theta() != small {
		t.Fatalf("shrunk theta %d, want %d", shrunk.Theta(), small)
	}
	if shrunk.Shards() != 1 {
		t.Fatalf("shrunk collection has %d shards, want 1 compact shard", shrunk.Shards())
	}
	for i := 0; i < small; i++ {
		if shrunk.Root(i) != fresh.Root(i) {
			t.Fatalf("sample %d: roots %d vs %d", i, shrunk.Root(i), fresh.Root(i))
		}
		for j := 0; j < shrunk.L(); j++ {
			a, b := shrunk.Set(i, j), fresh.Set(i, j)
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
	got, err := shrunk.EstimateAUScan(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.EstimateAUScan(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("shrunk scan %v != fresh scan %v", got, want)
	}
	// The shrunk collection indexes and regrows bit-identically.
	pool := []int32{1, 4, 9, 16, 25}
	six, err := shrunk.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	fix, err := fresh.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, "shrunk-vs-fresh", six, fix)
	if err := shrunk.ExtendTo(large); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, small - 1, small, large - 1} {
		for j := 0; j < big.L(); j++ {
			a, b := shrunk.Set(i, j), big.Set(i, j)
			if len(a) != len(b) {
				t.Fatalf("regrown sample %d piece %d: sizes %d vs %d", i, j, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("regrown sample %d piece %d differs", i, j)
				}
			}
		}
	}
	// The source collection is untouched.
	if big.Theta() != large {
		t.Fatalf("source theta drifted to %d", big.Theta())
	}
	for _, theta := range []int{0, -1, large + 1} {
		if _, err := big.ShrinkTo(theta); err == nil {
			t.Fatalf("ShrinkTo(%d) accepted", theta)
		}
	}
}

// TestShrinkReleasesMemory: MemUsage must drop across a shrink and be
// consistent between a shrunk collection and a freshly sampled one —
// the accounting the serve-layer governor budgets with.
func TestShrinkReleasesMemory(t *testing.T) {
	const small, large = 200, 2000
	big, fresh := mrrPair(t, 41, small, large)
	shrunk, err := big.ShrinkTo(small)
	if err != nil {
		t.Fatal(err)
	}
	bb, sb, fb := big.MemUsage(), shrunk.MemUsage(), fresh.MemUsage()
	if sb >= bb {
		t.Fatalf("shrink did not reduce bytes: %d -> %d", bb, sb)
	}
	// The compact copy must not exceed the freshly sampled layout (it
	// has one shard, exact arenas).
	if sb > fb {
		t.Fatalf("shrunk bytes %d exceed fresh bytes %d", sb, fb)
	}
	if sb <= 0 || bb <= 0 {
		t.Fatalf("non-positive MemUsage: big=%d shrunk=%d", bb, sb)
	}
	// Index accounting: exact-fit build equals its total list footprint;
	// growth keeps it positive and monotone.
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

// TestExtendFromStableUnderConcurrentReaders hammers estimators over an
// index lineage (full + prefix) while ExtendFrom repeatedly extends it —
// the registry's read-while-grow pattern at the index layer. Appends
// land beyond every published index's list lengths, so under -race this
// pins the storage-sharing contract.
func TestExtendFromStableUnderConcurrentReaders(t *testing.T) {
	g, probs := randomTestGraph(t, 61, 50, 300)
	m, err := SampleMRR(g, probs, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := []int32{0, 4, 8, 12, 16, 20}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := ix.Prefix(90)
	if err != nil {
		t.Fatal(err)
	}
	plan := [][]int32{{0, 8}, {4, 20}}
	wantFull, err := ix.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix, err := prefix.EstimateAU(plan, paperModel)
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
			sf := ix.NewAUScratch()
			sp := ix.NewAUScratch()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := ix.EstimateAUWith(plan, paperModel, sf); err != nil || got != wantFull {
					t.Errorf("full estimate drifted: %v (%v)", got, err)
					return
				}
				if got, err := prefix.EstimateAUWith(plan, paperModel, sp); err != nil || got != wantPrefix {
					t.Errorf("prefix estimate drifted: %v (%v)", got, err)
					return
				}
			}
		}()
	}
	cur := ix
	for theta := 400; theta <= 1600; theta += 400 {
		if err := m.ExtendTo(theta); err != nil {
			t.Error(err)
			break
		}
		next, err := cur.ExtendFrom(m)
		if err != nil {
			t.Error(err)
			break
		}
		cur = next
	}
	close(stop)
	wg.Wait()
	if cur.MRR().Theta() != 1600 {
		t.Fatalf("index lineage grew to %d, want 1600", cur.MRR().Theta())
	}
}
