package rrset

// The shardtest conformance suite pins the sharded store to a naive
// single-arena reference implementation: the same per-sample (seed, i)
// RNG derivation run by one serial loop into one offsets/nodes arena,
// with map-based estimators. Every public MRRCollection/MRRView read
// method must agree bit-for-bit (sets, coverage counts, float estimates
// accumulated in the same order) at 1, 4 and NumCPU shards — the
// determinism contract the package documents — for one-piece and
// multi-piece collections alike.

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// refArena is the naive single-arena flattened storage: set k spans
// nodes[offsets[k]:offsets[k+1]].
type refArena struct {
	offsets []int64
	nodes   []int32
	roots   []int32
}

func (a *refArena) set(k int) []int32 { return a.nodes[a.offsets[k]:a.offsets[k+1]] }

// refSampleMRR serially reproduces SampleMRRLayouts' semantics: set of
// sample i, piece j lives at arena index i·ℓ+j (i itself when ℓ = 1).
func refSampleMRR(g *graph.Graph, layouts []*graph.PieceLayout, theta int, seed uint64) *refArena {
	s := &sampler{w: traverse.NewWalker(g.N())}
	a := &refArena{offsets: []int64{0}}
	n := uint64(g.N())
	for i := 0; i < theta; i++ {
		rng := xrand.Derive(seed, uint64(i))
		root := int32(rng.Uint64n(n))
		a.roots = append(a.roots, root)
		for _, lay := range layouts {
			a.nodes = s.sample(root, lay, rng, a.nodes)
			a.offsets = append(a.offsets, int64(len(a.nodes)))
		}
	}
	return a
}

// refCoverage is the map-based coverage count.
func refCoverage(a *refArena, theta int, seeds []int32, n int) int {
	mark := map[int32]bool{}
	for _, v := range seeds {
		if v >= 0 && int(v) < n {
			mark[v] = true
		}
	}
	covered := 0
	for i := 0; i < theta; i++ {
		for _, v := range a.set(i) {
			if mark[v] {
				covered++
				break
			}
		}
	}
	return covered
}

// refAUScan is the map-based adoption-utility scan, accumulating in the
// same sample order as EstimateAUScan so the float result is
// bit-identical.
func refAUScan(a *refArena, theta, l int, plan [][]int32, model logistic.Model, n int) float64 {
	marks := make([]map[int32]bool, l)
	for j, seeds := range plan {
		marks[j] = map[int32]bool{}
		for _, v := range seeds {
			if v >= 0 && int(v) < n {
				marks[j][v] = true
			}
		}
	}
	total := 0.0
	for i := 0; i < theta; i++ {
		count := 0
		for j := 0; j < l; j++ {
			for _, v := range a.set(i*l + j) {
				if marks[j][v] {
					count++
					break
				}
			}
		}
		total += model.Adoption(count)
	}
	return float64(n) * total / float64(theta)
}

// shardCounts are the parallelism levels the conformance properties run
// at: serial, a fixed multi-shard count, and whatever this host has.
func shardCounts() []int {
	counts := []int{1, 4}
	if ncpu := runtime.NumCPU(); ncpu != 1 && ncpu != 4 {
		counts = append(counts, ncpu)
	}
	return counts
}

// atGOMAXPROCS runs fn with the given worker count (= shard count for a
// fresh collection) and restores the previous setting.
func atGOMAXPROCS(workers int, fn func()) {
	old := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// quickCfg returns a deterministic testing/quick config: the suite is a
// property test, but its cases must be reproducible run to run.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(42))}
}

// TestShardConformanceCollection checks a one-piece collection and its
// view against the reference on randomized graphs: same seeds ⇒
// identical roots, sets, sizes, coverage counts and spread estimates at
// every shard count.
func TestShardConformanceCollection(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 20 + r.Intn(60)
		m := 2*n + r.Intn(4*n)
		theta := 150 + r.Intn(350) // spans partial tail blocks
		g, probs := randomTestGraph(t, seed, n, m)
		lay, err := g.Layout(probs[0])
		if err != nil {
			t.Fatal(err)
		}
		ref := refSampleMRR(g, []*graph.PieceLayout{lay}, theta, seed^0x9e37)
		seedSets := [][]int32{
			{},
			{int32(r.Intn(n))},
			{int32(r.Intn(n)), int32(r.Intn(n)), int32(r.Intn(n))},
			{-1, int32(n + 5)}, // out-of-graph ids never match
		}
		for _, sc := range shardCounts() {
			ok := true
			atGOMAXPROCS(sc, func() {
				c := newCollection1(lay, seed^0x9e37)
				extend(t, c, theta)
				v := c.View()
				if c.Theta() != theta || v.Theta() != theta ||
					c.TotalSize() != len(ref.nodes) || v.TotalSize() != len(ref.nodes) {
					t.Logf("shards=%d: shape mismatch", sc)
					ok = false
					return
				}
				for i := 0; i < theta; i++ {
					if c.Root(i) != ref.roots[i] ||
						!slices.Equal(c.Set(i, 0), ref.set(i)) || !slices.Equal(v.Set(i, 0), ref.set(i)) {
						t.Logf("shards=%d: set %d mismatch", sc, i)
						ok = false
						return
					}
				}
				for _, seeds := range seedSets {
					want := refCoverage(ref, theta, seeds, n)
					if coverage(c, seeds) != want || coverage(v, seeds) != want {
						t.Logf("shards=%d: coverage of %v mismatch", sc, seeds)
						ok = false
						return
					}
					wantSpread := float64(n) * float64(want) / float64(theta)
					if spread(c, seeds) != wantSpread || spread(v, seeds) != wantSpread {
						t.Logf("shards=%d: spread of %v mismatch", sc, seeds)
						ok = false
						return
					}
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(8)); err != nil {
		t.Fatal(err)
	}
}

// TestShardConformanceMRR is the MRR analogue: Set/Root/Theta/TotalSize
// and EstimateAUScan (bit-identical floats) against the reference at
// every shard count, including growth split across two ExtendTo calls.
func TestShardConformanceMRR(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 20 + r.Intn(50)
		m := 2*n + r.Intn(3*n)
		theta := 130 + r.Intn(260)
		g, probs := randomTestGraph(t, seed, n, m)
		layouts, err := buildLayouts(g, probs)
		if err != nil {
			t.Fatal(err)
		}
		l := len(layouts)
		ref := refSampleMRR(g, layouts, theta, seed^0x51ed)
		plans := [][][]int32{
			{{int32(r.Intn(n))}, {int32(r.Intn(n)), int32(r.Intn(n))}},
			{nil, {int32(r.Intn(n))}},
			{{-3}, {int32(n + 1)}},
		}
		for _, sc := range shardCounts() {
			ok := true
			atGOMAXPROCS(sc, func() {
				mc, err := SampleMRRLayouts(g, layouts, theta/2+1, seed^0x51ed)
				if err != nil {
					t.Fatal(err)
				}
				if err := mc.ExtendTo(theta); err != nil { // second run grows shards in place
					t.Fatal(err)
				}
				v := mc.View()
				if mc.Theta() != theta || mc.L() != l || mc.TotalSize() != len(ref.nodes) || v.TotalSize() != len(ref.nodes) {
					t.Logf("shards=%d: shape mismatch", sc)
					ok = false
					return
				}
				for i := 0; i < theta; i++ {
					if mc.Root(i) != ref.roots[i] {
						t.Logf("shards=%d: root %d mismatch", sc, i)
						ok = false
						return
					}
					for j := 0; j < l; j++ {
						if !slices.Equal(mc.Set(i, j), ref.set(i*l+j)) || !slices.Equal(v.Set(i, j), ref.set(i*l+j)) {
							t.Logf("shards=%d: set (%d,%d) mismatch", sc, i, j)
							ok = false
							return
						}
					}
				}
				for _, plan := range plans {
					want := refAUScan(ref, theta, l, plan, paperModel, n)
					got, err := mc.EstimateAUScan(plan, paperModel)
					if err != nil {
						t.Fatal(err)
					}
					gotView, err := v.EstimateAUScan(plan, paperModel)
					if err != nil {
						t.Fatal(err)
					}
					if got != want || gotView != want {
						t.Logf("shards=%d: AU scan %v != %v (view %v)", sc, got, want, gotView)
						ok = false
						return
					}
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(8)); err != nil {
		t.Fatal(err)
	}
}
