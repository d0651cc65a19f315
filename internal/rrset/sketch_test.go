package rrset

import (
	"fmt"
	"math"
	"testing"

	"oipa/internal/xrand"
)

// sketchTestSetup samples a mid-size collection and builds an index with
// sketches over a ~10% pool.
func sketchTestSetup(t testing.TB, theta, k int) (*MRRCollection, *Index, []int32) {
	t.Helper()
	g, probs := randomTestGraph(t, 11, 400, 4000)
	m, err := SampleMRR(g, probs, theta, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]int32, 0, 40)
	for v := int32(0); v < int32(g.N()); v += 10 {
		pool = append(pool, v)
	}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachSketches(k); err != nil {
		t.Fatal(err)
	}
	return m, ix, pool
}

// sketchTestPlans derives deterministic plans of pool members, one per
// plan seed, mixing sizes so both sparse and dense coverage is exercised.
func sketchTestPlans(pool []int32, pieces, n int) [][][]int32 {
	plans := make([][][]int32, 0, n)
	for ps := 0; ps < n; ps++ {
		r := xrand.New(uint64(1000 + ps))
		size := 2 + ps%8
		plan := make([][]int32, pieces)
		for j := range plan {
			for s := 0; s < size; s++ {
				plan[j] = append(plan[j], pool[r.Intn(len(pool))])
			}
		}
		plans = append(plans, plan)
	}
	return plans
}

// solverScalePlans mirrors the plans the solvers hand the estimator:
// around ten distinct seeds per piece, the regime the ≤5% accuracy
// contract is pinned for.
func solverScalePlans(pool []int32, pieces, n int) [][][]int32 {
	plans := make([][][]int32, 0, n)
	for ps := 0; ps < n; ps++ {
		r := xrand.New(uint64(9000 + ps))
		size := 8 + ps%5
		plan := make([][]int32, pieces)
		for j := range plan {
			seen := map[int32]bool{}
			for len(plan[j]) < size {
				v := pool[r.Intn(len(pool))]
				if !seen[v] {
					seen[v] = true
					plan[j] = append(plan[j], v)
				}
			}
		}
		plans = append(plans, plan)
	}
	return plans
}

// checkSketchInvariant verifies, for every slot, that the sketch stores
// exactly the list entries hashing below the slot threshold — the
// completeness property every estimate rests on. It pins both the build
// path and the append/compact path of ExtendFrom.
func checkSketchInvariant(t *testing.T, ix *Index) {
	t.Helper()
	sk := ix.sk
	if sk == nil {
		t.Fatal("index has no sketches")
	}
	theta := ix.mrr.Theta()
	hash := sampleHashes(sk.salt, 0, theta)
	for slot, list := range ix.lists {
		want := map[int32]uint64{}
		for _, i := range list {
			if int(i) < theta && hash[i] < sk.tau[slot] {
				want[i] = hash[i]
			}
		}
		if len(want) != len(sk.ids[slot]) {
			t.Fatalf("slot %d: sketch stores %d entries, want %d below tau", slot, len(sk.ids[slot]), len(want))
		}
		for x, id := range sk.ids[slot] {
			h, ok := want[id]
			if !ok || h != sk.hs[slot][x] {
				t.Fatalf("slot %d entry %d: stored (%d, %x) not in expected set", slot, x, id, sk.hs[slot][x])
			}
		}
		if len(sk.ids[slot]) > len(list) {
			t.Fatalf("slot %d: sketch larger than list", slot)
		}
	}
}

func TestSketchInvariantAfterBuild(t *testing.T) {
	_, ix, _ := sketchTestSetup(t, 20000, 64)
	checkSketchInvariant(t, ix)
	// Thresholded slots hold at least k entries and stay near the ~1.5k
	// build target (2k, with slack for the halve-would-undershoot backoff).
	for slot := range ix.lists {
		if ix.sk.tau[slot] == math.MaxUint64 {
			continue
		}
		if n := len(ix.sk.ids[slot]); n < 64 || n >= 4*64 {
			t.Fatalf("slot %d: thresholded sketch holds %d entries, want [64, 256)", slot, n)
		}
	}
}

// TestSketchAccuracy bounds the relative error of EstimateAUSketch against
// the exact index estimator at k = 256 across a spread of plans. The
// inputs are fully deterministic, so this is a golden bound, not a flaky
// statistical assertion.
func TestSketchAccuracy(t *testing.T) {
	theta := 20000
	if testing.Short() {
		theta = 8000
	}
	_, ix, pool := sketchTestSetup(t, theta, 256)
	check := func(plans [][][]int32, bound float64, label string) {
		t.Helper()
		worst := 0.0
		for pi, plan := range plans {
			exact, err := ix.EstimateAU(plan, paperModel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.EstimateAUSketch(plan, paperModel)
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(got-exact) / exact
			if rel > worst {
				worst = rel
			}
			if rel > bound {
				t.Errorf("%s plan %d: sketch %.4f vs exact %.4f, rel err %.3f > %.0f%%", label, pi, got, exact, rel, bound*100)
			}
		}
		t.Logf("%s worst relative error at k=256: %.4f", label, worst)
	}
	// Solver-scale plans (the BAB/greedy regime, ~10 seeds per piece) have
	// large covered unions, so the coordinated sample below τ* is big:
	// these carry the ≤5% contract.
	check(solverScalePlans(pool, 2, 12), 0.05, "solver-scale")
	// Tiny plans cover little, leaving fewer effective samples; they get a
	// looser but still golden bound.
	check(sketchTestPlans(pool, 2, 12), 0.10, "tiny")
}

// TestSketchExactWhenStoredWhole: with k at least the longest list, every
// slot is stored whole and the sketch sees every covered sample — the
// estimate matches exact scan up to floating-point summation order.
func TestSketchExactWhenStoredWhole(t *testing.T) {
	_, ix, pool := sketchTestSetup(t, 2000, 1<<16)
	for slot := range ix.lists {
		if ix.sk.tau[slot] != math.MaxUint64 {
			t.Fatalf("slot %d thresholded despite huge k", slot)
		}
	}
	for pi, plan := range sketchTestPlans(pool, 2, 6) {
		exact, err := ix.EstimateAU(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exact) > 1e-9*math.Max(1, exact) {
			t.Fatalf("plan %d: whole-stored sketch %.12f != exact %.12f", pi, got, exact)
		}
	}
}

// TestSketchDeterministic pins that sketch estimates are a pure function
// of (collection seed, θ, pool, k, plan): two independent builds agree
// bit-for-bit.
func TestSketchDeterministic(t *testing.T) {
	_, ix1, pool := sketchTestSetup(t, 5000, 128)
	_, ix2, _ := sketchTestSetup(t, 5000, 128)
	for _, plan := range sketchTestPlans(pool, 2, 4) {
		a, err := ix1.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix2.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("independent builds disagree: %v vs %v", a, b)
		}
	}
}

// TestSketchExtendAppendOnly grows a sketched index and pins:
//   - the receiver stays frozen (its estimates are bit-identical before
//     and after the growth step);
//   - the grown sketch still satisfies the completeness invariant (so
//     appends + compactions, never rebuilds, kept it valid);
//   - the grown sketch's estimates stay within the error bound of the
//     grown exact estimates.
func TestSketchExtendAppendOnly(t *testing.T) {
	m, ix, pool := sketchTestSetup(t, 4000, 64)
	plans := sketchTestPlans(pool, 2, 6)
	before := make([]float64, len(plans))
	for pi, plan := range plans {
		v, err := ix.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		before[pi] = v
	}
	if err := m.ExtendTo(16000); err != nil {
		t.Fatal(err)
	}
	grown, err := ix.ExtendFrom(m)
	if err != nil {
		t.Fatal(err)
	}
	if grown.SketchK() != 64 {
		t.Fatalf("grown SketchK = %d, want 64", grown.SketchK())
	}
	checkSketchInvariant(t, grown)
	for pi, plan := range plans {
		v, err := ix.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		if v != before[pi] {
			t.Fatalf("plan %d: receiver estimate changed after ExtendFrom: %v vs %v", pi, v, before[pi])
		}
		exact, err := grown.EstimateAU(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		gv, err := grown.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(gv-exact) / exact; rel > 0.30 {
			t.Errorf("plan %d: grown sketch rel err %.3f at k=64", pi, rel)
		}
	}
}

// TestSketchPrefixRebound: a prefix of a sketched index reuses the
// parent's sketches cut at the sample limit — no copy, no fallback — and
// its estimates track the prefix-exact estimator.
func TestSketchPrefixRebound(t *testing.T) {
	_, ix, pool := sketchTestSetup(t, 20000, 256)
	pix, err := ix.Prefix(5000)
	if err != nil {
		t.Fatal(err)
	}
	if !pix.HasSketches() || pix.SketchK() != 256 {
		t.Fatal("prefix index dropped the parent's sketches")
	}
	for pi, plan := range sketchTestPlans(pool, 2, 8) {
		exact, err := pix.EstimateAU(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pix.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		// The effective sample shrinks with the prefix fraction (¼ here),
		// so allow a correspondingly looser, but still golden, bound.
		if rel := math.Abs(got-exact) / exact; rel > 0.12 {
			t.Errorf("plan %d: prefix sketch %.4f vs exact %.4f, rel %.3f", pi, got, exact, rel)
		}
	}
}

// TestSketchMemUsage: attaching sketches grows MemUsage by the sketch
// footprint, and prefix derivatives — which alias lists, pool arrays, and
// sketches alike — report zero so a lineage holding a full index plus a
// served prefix is not double-counted by the registry's resident gauge.
func TestSketchMemUsage(t *testing.T) {
	g, probs := randomTestGraph(t, 11, 400, 4000)
	m, err := SampleMRR(g, probs, 8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]int32, 0, 40)
	for v := int32(0); v < int32(g.N()); v += 10 {
		pool = append(pool, v)
	}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	base := ix.MemUsage()
	if err := ix.AttachSketches(128); err != nil {
		t.Fatal(err)
	}
	if got := ix.MemUsage(); got <= base {
		t.Fatalf("MemUsage with sketches %d not above base %d", got, base)
	}
	pix, err := ix.Prefix(2000)
	if err != nil {
		t.Fatal(err)
	}
	if got := pix.MemUsage(); got != 0 {
		t.Fatalf("prefix MemUsage = %d, want 0 (aliases parent storage)", got)
	}
}

func TestAttachSketchesRejects(t *testing.T) {
	_, ix, _ := sketchTestSetup(t, 2000, 64)
	pix, err := ix.Prefix(500)
	if err != nil {
		t.Fatal(err)
	}
	if err := pix.AttachSketches(64); err == nil {
		t.Fatal("AttachSketches on a prefix index did not refuse")
	}
	if err := ix.AttachSketches(0); err == nil {
		t.Fatal("AttachSketches(0) did not refuse")
	}
	if err := ix.AttachSketches(sketchMaxK + 1); err == nil {
		t.Fatal("AttachSketches over cap did not refuse")
	}
}

// TestSketchConcurrentReadDuringGrowth is the race canary for the sketch
// path: readers hammer sketch estimates on the receiver and its prefix
// while ExtendFrom grows the lineage, mirroring the serve registry's
// grow-under-readers pattern.
func TestSketchConcurrentReadDuringGrowth(t *testing.T) {
	m, ix, pool := sketchTestSetup(t, 3000, 64)
	plan := sketchTestPlans(pool, 2, 1)[0]
	want, err := ix.EstimateAUSketch(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	pix, err := ix.Prefix(1000)
	if err != nil {
		t.Fatal(err)
	}
	pwant, err := pix.EstimateAUSketch(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func() {
			s := NewSketchScratch()
			for iter := 0; iter < 200; iter++ {
				got, err := ix.EstimateAUSketchWith(plan, paperModel, s)
				if err != nil {
					done <- err
					return
				}
				if got != want {
					done <- fmt.Errorf("receiver estimate drifted under growth: %v vs %v", got, want)
					return
				}
				pgot, err := pix.EstimateAUSketchWith(plan, paperModel, s)
				if err != nil {
					done <- err
					return
				}
				if pgot != pwant {
					done <- fmt.Errorf("prefix estimate drifted under growth: %v vs %v", pgot, pwant)
					return
				}
			}
			done <- nil
		}()
	}
	cur := ix
	for _, theta := range []int{6000, 12000, 24000} {
		if err := m.ExtendTo(theta); err != nil {
			t.Fatal(err)
		}
		next, err := cur.ExtendFrom(m)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	for r := 0; r < 4; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	checkSketchInvariant(t, cur)
}

// TestSketchSurvivesRebuild pins the re-attach path: sketches are not
// part of a collection, so an artifact rebuilt from the same (graph,
// layouts, seed) — here on a different worker schedule — recovers them
// by indexing and calling AttachSketches, which must reproduce the first
// build's sketches bit for bit: the sketch is deterministic in
// (salt = seed ^ tweak, θ, inverted lists) and a rebuild repeats all three.
func TestSketchSurvivesRebuild(t *testing.T) {
	g, probs := randomTestGraph(t, 11, 400, 4000)
	layouts, err := buildLayouts(g, probs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SampleMRRLayouts(g, layouts, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]int32, 0, 40)
	for v := int32(0); v < int32(g.N()); v += 10 {
		pool = append(pool, v)
	}
	fresh, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AttachSketches(128); err != nil {
		t.Fatal(err)
	}

	var rebuilt *MRRCollection
	atGOMAXPROCS(1, func() {
		if rebuilt, err = SampleMRRLayouts(g, layouts, 3000, 7); err != nil {
			t.Fatal(err)
		}
	})
	lix, err := rebuilt.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	if lix.HasSketches() {
		t.Fatal("sketches appeared without AttachSketches")
	}
	if err := lix.AttachSketches(128); err != nil {
		t.Fatal(err)
	}

	indexesEqual(t, "rebuilt index", lix, fresh)
	a, b := fresh.sk, lix.sk
	if a.salt != b.salt || a.k != b.k {
		t.Fatalf("sketch params differ: salt %x/%x k %d/%d", a.salt, b.salt, a.k, b.k)
	}
	for slot := range a.tau {
		if a.tau[slot] != b.tau[slot] {
			t.Fatalf("slot %d: tau %x vs %x", slot, a.tau[slot], b.tau[slot])
		}
		if len(a.ids[slot]) != len(b.ids[slot]) {
			t.Fatalf("slot %d: %d vs %d sketch entries", slot, len(a.ids[slot]), len(b.ids[slot]))
		}
		for x := range a.ids[slot] {
			if a.ids[slot][x] != b.ids[slot][x] || a.hs[slot][x] != b.hs[slot][x] {
				t.Fatalf("slot %d entry %d differs after rebuild", slot, x)
			}
		}
	}
	checkSketchInvariant(t, lix)
	for _, plan := range sketchTestPlans(pool, 2, 4) {
		x, err := fresh.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		y, err := lix.EstimateAUSketch(plan, paperModel)
		if err != nil {
			t.Fatal(err)
		}
		if x != y {
			t.Fatalf("sketch estimates diverge after rebuild: %v vs %v", x, y)
		}
	}
}
