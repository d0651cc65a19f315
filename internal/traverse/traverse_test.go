package traverse_test

import (
	"testing"

	"oipa/internal/cascade"
	"oipa/internal/graph"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// buildPair builds a random graph exercising every dispatch path of the
// shared walker (empty ranges, uniform short scans, uniform geo-skip
// ranges, p=1 ranges, mixed ranges) together with its transpose carrying
// the same per-edge vectors. A reverse walk in g from root r must equal a
// forward walk in gt from r when both consume the same RNG stream.
func buildPair(t *testing.T, n int, seed uint64) (g, gt *graph.Graph) {
	t.Helper()
	rng := xrand.New(seed)
	type edge struct{ u, v int32 }
	seen := map[edge]bool{}
	var edges []edge
	add := func(u, v int32) {
		e := edge{u, v}
		if u == v || seen[e] {
			return
		}
		seen[e] = true
		edges = append(edges, e)
	}
	for i := 0; i < n*8; i++ {
		add(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	// Force a high-in-degree even target so the geometric-skip path
	// (in-degree > GeoSkipMinDeg with one shared probability) is hit.
	for u := 1; u < 2*traverse.GeoSkipMinDeg+2; u++ {
		add(int32(u), 0)
	}
	indeg := make([]int, n)
	for _, e := range edges {
		indeg[e.v]++
	}
	b := graph.NewBuilder(n, 1)
	bt := graph.NewBuilder(n, 1)
	for _, e := range edges {
		var p float64
		switch {
		case e.v%4 == 0:
			p = 1.0 / float64(indeg[e.v]) // uniform in-range (WC-style)
		case e.v%4 == 1:
			p = 1 // all-live range
		case e.v%4 == 2:
			p = 0 // all-dead range
		default:
			p = rng.Float64() // mixed in-range
		}
		vec := topic.Vector{Idx: []int32{0}, Val: []float64{p}}
		if p == 0 {
			vec = topic.Vector{}
		}
		if err := b.AddEdge(e.u, e.v, vec); err != nil {
			t.Fatal(err)
		}
		if err := bt.AddEdge(e.v, e.u, vec); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gt, err = bt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, gt
}

// TestSamplerSimulatorLockstep pins the two callers of the shared walker
// to identical draws: the RR set of root r in g (reverse walk) and the
// forward cascade from {r} in the transpose gt visit the same nodes in
// the same order when driven by the same RNG stream. Before the core was
// unified these two ~45-line loops were maintained by hand in lockstep;
// this test makes any future divergence loud.
func TestSamplerSimulatorLockstep(t *testing.T) {
	const n, theta, seed = 80, 200, uint64(7)
	g, gt := buildPair(t, n, 3)
	piece := topic.SingleTopic(0)
	roots := make([]int32, theta)
	for i := range roots {
		roots[i] = int32(i % n)
	}
	mrr, err := rrset.SampleMRRWithRoots(g, [][]float64{g.PieceProbs(piece)}, roots, seed)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cascade.NewSimulator(gt, gt.PieceProbs(piece))
	if err != nil {
		t.Fatal(err)
	}
	var got []int32
	for i := 0; i < theta; i++ {
		// Replicate the sampler's per-sample RNG derivation: Derive(seed, i)
		// with the root draw burned (SampleMRRWithRoots pins roots but keeps
		// the stream position identical to SampleMRR).
		rng := xrand.Derive(seed, uint64(i))
		rng.Uint64n(uint64(g.N()))
		got = got[:0]
		sim.Run(roots[i:i+1], rng, &got)
		want := mrr.Set(i, 0)
		if len(got) != len(want) {
			t.Fatalf("sample %d: cascade visited %d nodes, RR set has %d", i, len(got), len(want))
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("sample %d position %d: cascade visited %d, RR sampler %d", i, p, got[p], want[p])
			}
		}
	}
}

// TestWalkerMatchesSampler pins the exported Walker API itself to the RR
// sampler's output: a reverse walk over the layout's reverse walk view
// is the RR set.
func TestWalkerMatchesSampler(t *testing.T) {
	const n, theta, seed = 80, 100, uint64(11)
	g, _ := buildPair(t, n, 5)
	piece := topic.SingleTopic(0)
	lay, err := g.Layout(g.PieceProbs(piece))
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]int32, theta)
	for i := range roots {
		roots[i] = int32((i * 13) % n)
	}
	mrr, err := rrset.SampleMRRWithRoots(g, [][]float64{g.PieceProbs(piece)}, roots, seed)
	if err != nil {
		t.Fatal(err)
	}
	inOff, inFrom, inDist, inProbs := lay.Reverse()
	w := traverse.NewWalker(g.N())
	for i := 0; i < theta; i++ {
		rng := xrand.Derive(seed, uint64(i))
		rng.Uint64n(uint64(g.N()))
		order := w.RunFrom(inOff, inFrom, inDist, inProbs, roots[i], rng)
		want := mrr.Set(i, 0)
		if len(order) != len(want) {
			t.Fatalf("sample %d: walker visited %d nodes, RR set has %d", i, len(order), len(want))
		}
		for p := range want {
			if order[p] != want[p] {
				t.Fatalf("sample %d position %d: walker %d, sampler %d", i, p, order[p], want[p])
			}
		}
	}
}

// TestWalkerDedupsSeeds checks the seed-handling contract shared with the
// cascade: duplicate seeds are visited once, and the visit order starts
// with the distinct seeds in presentation order.
func TestWalkerDedupsSeeds(t *testing.T) {
	g, _ := buildPair(t, 20, 9)
	lay, err := g.Layout(g.PieceProbs(topic.SingleTopic(0)))
	if err != nil {
		t.Fatal(err)
	}
	outOff, outTo := g.OutCSR()
	w := traverse.NewWalker(g.N())
	order := w.Run(outOff, outTo, lay.OutDist, lay.OutProbs, []int32{3, 5, 3, 5, 7}, xrand.New(1))
	if len(order) < 3 || order[0] != 3 || order[1] != 5 || order[2] != 7 {
		t.Fatalf("walk order %v does not start with deduped seeds [3 5 7]", order)
	}
	seen := map[int32]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("node %d visited twice", v)
		}
		seen[v] = true
	}
}
