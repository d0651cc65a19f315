package rrset

// Cross-representation parity: a layout built from a topic vector is the
// piece's pruned reverse CSR, a layout built from the explicit
// probability vector is aligned with the graph's and unpruned. A
// zero-probability edge never draws a random number, so the two must
// sample the same roots and the same sets in the same order — through
// initial sampling and ExtendTo — and everything derived from the sets
// (inverted index, estimates) must be identical. The goldens imply it;
// these tests pin it directly.

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// explicitLayouts builds every piece through Layout(PieceProbs(t)).
func explicitLayouts(t *testing.T, g *graph.Graph, pieces []topic.Vector) []*graph.PieceLayout {
	t.Helper()
	lays := make([]*graph.PieceLayout, len(pieces))
	for j, p := range pieces {
		lay, err := g.Layout(g.PieceProbs(p))
		if err != nil {
			t.Fatal(err)
		}
		lays[j] = lay
	}
	return lays
}

// cachedLayouts builds every piece through a LayoutCache.
func cachedLayouts(t *testing.T, g *graph.Graph, pieces []topic.Vector) []*graph.PieceLayout {
	t.Helper()
	cache := graph.NewLayoutCache(g, 0)
	lays := make([]*graph.PieceLayout, len(pieces))
	for j, p := range pieces {
		lay, err := cache.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		lays[j] = lay
	}
	return lays
}

// checkDerivedParity compares what the solvers read off two collections:
// the inverted index lists and the adoption-utility estimate.
func checkDerivedParity(t *testing.T, a, b *MRRCollection, stage string) {
	t.Helper()
	compareCollections(t, a, b, stage)
	pool := make([]int32, 0, a.N()/2)
	for v := 0; v < a.N(); v += 2 {
		pool = append(pool, int32(v))
	}
	ixA, err := a.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := b.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, stage, ixA, ixB)
	plan := make([][]int32, a.L())
	for j := range plan {
		plan[j] = []int32{pool[j%len(pool)], pool[(3*j+5)%len(pool)], pool[len(pool)-1-j]}
	}
	model := logistic.Model{Alpha: 3, Beta: 1}
	ua, err := ixA.MRR().NewEstimator().EstimateAU(plan, model)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := ixB.MRR().NewEstimator().EstimateAU(plan, model)
	if err != nil {
		t.Fatal(err)
	}
	if ua != ub {
		t.Fatalf("%s: EstimateAU %v vs %v", stage, ua, ub)
	}
}

func TestPrunedLayoutsSampleIdenticallyToExplicitLayouts(t *testing.T) {
	type fixture struct {
		name   string
		g      *graph.Graph
		pieces []topic.Vector
	}
	var fixtures []fixture

	// Sparse topics: single-topic pieces leave most edges at p = 0, the
	// mixed piece leaves a few.
	sparse, _ := randomTestGraph(t, 21, 80, 560)
	fixtures = append(fixtures, fixture{"sparse topics", sparse, []topic.Vector{
		topic.SingleTopic(0), topic.SingleTopic(2), {Idx: []int32{0, 1}, Val: []float64{0.7, 0.3}},
	}})

	// Weighted cascade: every in-range uniform, the geometric-skip path,
	// nothing to prune.
	wc, _ := wcGraph(t, 5, 400, 6000)
	fixtures = append(fixtures, fixture{"weighted cascade", wc, []topic.Vector{topic.SingleTopic(0), topic.SingleTopic(0)}})

	// Certain edges, dead edges and sources: nodes 0..9 have no in-edges,
	// chains of p = 1 edges hang off them, and every node also has a dead
	// (topic-1-only) and a fractional in-edge.
	b := graph.NewBuilder(60, 2)
	r := xrand.New(8)
	add := func(u, v int32, p0, p1 float64) {
		t.Helper()
		if err := b.AddEdge(u, v, topic.Vector{Idx: []int32{0, 1}, Val: []float64{p0, p1}}); err != nil {
			t.Fatal(err)
		}
	}
	for v := int32(10); v < 60; v++ {
		add(v-10, v, 1, 0)
		add((v+7)%10, v, 0, 0.5)
		if u := int32(10 + r.Intn(50)); u != v && u != v-10 {
			add(u, v, 0.3*r.Float64(), 0)
		}
	}
	certain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"certain edges and sources", certain, []topic.Vector{topic.SingleTopic(0), topic.SingleTopic(1)}})

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			const theta, grown, seed = 600, 1500, 13
			explicit := explicitLayouts(t, fx.g, fx.pieces)
			cached := cachedLayouts(t, fx.g, fx.pieces)
			a, err := SampleMRRLayouts(fx.g, explicit, theta, seed)
			if err != nil {
				t.Fatal(err)
			}
			c, err := SampleMRRLayouts(fx.g, cached, theta, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkDerivedParity(t, a, c, "initial")
			if err := a.ExtendTo(grown); err != nil {
				t.Fatal(err)
			}
			if err := c.ExtendTo(grown); err != nil {
				t.Fatal(err)
			}
			checkDerivedParity(t, a, c, "extended")

			// A one-piece collection walks the same way.
			ca, cc := newCollection1(explicit[0], seed), newCollection1(cached[0], seed)
			extend(t, ca, theta)
			extend(t, cc, theta)
			for i := 0; i < theta; i++ {
				if ca.Root(i) != cc.Root(i) || !slices.Equal(ca.Set(i, 0), cc.Set(i, 0)) {
					t.Fatalf("single-piece set %d: explicit root %d %v, cached root %d %v", i, ca.Root(i), ca.Set(i, 0), cc.Root(i), cc.Set(i, 0))
				}
			}
		})
	}
}

// TestPrunedLayoutsSampleIdenticallyOnMultiplex is the same parity over a
// 2-layer multiplex whose second layer embeds through a non-identity
// mapping: Multiplex.Layouts (cache-built, pruned) against per-layer
// explicit layouts.
func TestPrunedLayoutsSampleIdenticallyOnMultiplex(t *testing.T) {
	l0, _ := randomTestGraph(t, 3, 36, 170)
	l1, _ := randomTestGraph(t, 4, 24, 120)
	perm := xrand.New(99).Sample(36, 24)
	toGlobal := make([]int32, len(perm))
	for i, u := range perm {
		toGlobal[i] = int32(u)
	}
	mx, err := graph.NewMultiplex(36, []graph.MultiplexLayer{{G: l0}, {G: l1, ToGlobal: toGlobal}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pieces := []topic.Vector{topic.SingleTopic(0), {Idx: []int32{1, 2}, Val: []float64{0.5, 0.5}}}
	explicit := make([][]*graph.PieceLayout, len(pieces))
	cached := make([][]*graph.PieceLayout, len(pieces))
	for j, p := range pieces {
		if cached[j], err = mx.Layouts(p); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < mx.L(); a++ {
			explicit[j] = append(explicit[j], explicitLayouts(t, mx.Layer(a), []topic.Vector{p})[0])
		}
	}
	const theta, grown, seed = 500, 1200, 17
	a, err := SampleMRRMultiplexLayouts(mx, explicit, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SampleMRRMultiplexLayouts(mx, cached, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	checkDerivedParity(t, a, c, "initial")
	if err := a.ExtendTo(grown); err != nil {
		t.Fatal(err)
	}
	if err := c.ExtendTo(grown); err != nil {
		t.Fatal(err)
	}
	checkDerivedParity(t, a, c, "extended")
}

// TestSamplingAllocatesPerWorkerNotPerSample pins the per-sample RNG
// allocation out: at θ = 20 000 a sampling pass allocates a handful of
// times per worker and per arena doubling, nowhere near once per sample,
// on both samplers behind the pieceSampler interface.
func TestSamplingAllocatesPerWorkerNotPerSample(t *testing.T) {
	const theta = 20_000
	g, _ := randomTestGraph(t, 9, 300, 1800)
	pieces := []topic.Vector{topic.SingleTopic(0), topic.SingleTopic(1)}
	layouts := cachedLayouts(t, g, pieces)
	mx, err := graph.NewMultiplex(g.N(), []graph.MultiplexLayer{{G: g}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	muxLayouts := muxTestLayouts(t, mx)
	for _, tc := range []struct {
		name   string
		sample func() error
	}{
		{"single graph", func() error {
			_, err := SampleMRRLayouts(g, layouts, theta, 7)
			return err
		}},
		{"one-layer multiplex", func() error {
			_, err := SampleMRRMultiplexLayouts(mx, muxLayouts, theta, 7)
			return err
		}},
		{"single piece", func() error {
			return newCollection1(layouts[0], 7).ExtendTo(theta)
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			if e := tc.sample(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if perSample := allocs / theta; perSample > 0.01 {
			t.Errorf("%s: %.0f allocations for %d samples = %.4f per sample, want ≤ 0.01", tc.name, allocs, theta, perSample)
		}
	}
}

// TestExtendToCtxBuildsOneSamplerPerWorker pins the chunked growth: a
// θ = 100 000 growth under a cancellable context runs 13 chunks, and must
// construct one sampler per worker for the whole call, not one per worker
// per chunk.
func TestExtendToCtxBuildsOneSamplerPerWorker(t *testing.T) {
	g, _ := randomTestGraph(t, 77, 50, 300)
	layouts := cachedLayouts(t, g, []topic.Vector{topic.SingleTopic(0), topic.SingleTopic(1)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 4} {
		atGOMAXPROCS(workers, func() {
			m := emptyGraphMRR(g, layouts, 11)
			var built atomic.Int64
			newPieceSampler := m.sub.newPieceSampler
			m.sub.newPieceSampler = func() pieceSampler {
				built.Add(1)
				return newPieceSampler()
			}
			if err := m.ExtendToCtx(ctx, 100_000); err != nil {
				t.Fatal(err)
			}
			if m.Theta() != 100_000 {
				t.Fatalf("grew to theta %d", m.Theta())
			}
			if len(m.st.runs) < 100_000/extendCtxChunk {
				t.Fatalf("growth ran as %d chunks; the context should have chunked it", len(m.st.runs))
			}
			if got := int(built.Load()); got != runtime.GOMAXPROCS(0) {
				t.Fatalf("GOMAXPROCS %d: growth constructed %d samplers", runtime.GOMAXPROCS(0), got)
			}
		})
	}
}
