package traverse_test

import (
	"math"
	"testing"

	"oipa/internal/cascade"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// buildGraph builds a random graph exercising every dispatch path of the
// walker: empty ranges, uniform short scans, uniform geo-skip ranges, p=1
// ranges and mixed ranges.
func buildGraph(t *testing.T, n int, seed uint64) *graph.Graph {
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
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSamplerSimulatorLockstep pins the RR sampler to the forward
// cascade, which shares no code with it, on a graph whose edges are all
// live or all dead: the RR set of every root r in g and the nodes the
// cascade activates from {r} in the transpose gt are both the nodes that
// reach r, so they must have the same size for every r. A walker change
// that drops or repeats a node on any dispatch path shows up here.
func TestSamplerSimulatorLockstep(t *testing.T) {
	const n, seed = 80, uint64(7)
	rng := xrand.New(3)
	b, bt := graph.NewBuilder(n, 1), graph.NewBuilder(n, 1)
	seen := map[[2]int32]bool{}
	for i := 0; i < n*8; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		// About one edge in seven is live, so reach sizes vary from the
		// root alone to most of the graph.
		vec := topic.Vector{}
		if rng.Intn(7) == 0 {
			vec = topic.SingleTopic(0)
		}
		if err := b.AddEdge(u, v, vec); err != nil {
			t.Fatal(err)
		}
		if err := bt.AddEdge(v, u, vec); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := bt.Build()
	if err != nil {
		t.Fatal(err)
	}
	piece := topic.SingleTopic(0)
	roots := make([]int32, n)
	for i := range roots {
		roots[i] = int32(i)
	}
	mrr, err := rrset.SampleMRRWithRoots(g, [][]float64{g.PieceProbs(piece)}, roots, seed)
	if err != nil {
		t.Fatal(err)
	}
	model := logistic.Model{Alpha: 3, Beta: 1}
	probs := [][]float64{gt.PieceProbs(piece)}
	sizes := map[int]bool{}
	for i, r := range roots {
		u, err := cascade.ExactAdoptionDeterministic(gt, probs, [][]int32{{r}}, model)
		if err != nil {
			t.Fatal(err)
		}
		want := len(mrr.Set(i, 0))
		sizes[want] = true
		if got := u / model.Adoption(1); math.Abs(got-float64(want)) > 1e-9 {
			t.Fatalf("root %d: cascade in the transpose activated %.3f nodes, RR set has %d", r, got, want)
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("reach sizes %v: the fixture does not vary reach", sizes)
	}
}

// TestWalkerMatchesSampler pins the exported Walker API itself to the RR
// sampler's output: a reverse walk over the layout's reverse walk view
// is the RR set.
func TestWalkerMatchesSampler(t *testing.T) {
	const n, theta, seed = 80, 100, uint64(11)
	g := buildGraph(t, n, 5)
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
