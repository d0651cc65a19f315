package graph

import (
	"math"
	"slices"
	"testing"

	"oipa/internal/topic"
)

// layoutTestGraph builds a 5-node graph exercising every NodeDist case:
// node 2 has uniform fractional in-edges (the WC case), node 3 has mixed
// in-edges, node 4 has an all-ones in-edge, and node 0 has no in-edges.
func layoutTestGraph(t *testing.T) (*Graph, []float64) {
	t.Helper()
	b := NewBuilder(5, 2)
	add := func(u, v int32, p0, p1 float64) {
		t.Helper()
		if err := b.AddEdge(u, v, topic.FromDense([]float64{p0, p1})); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 2, 0.25, 0.5) // in-edges of 2: both 0.25 under topic 0
	add(1, 2, 0.25, 0.75)
	add(0, 3, 0.25, 0.5) // in-edges of 3: 0.25 and 0.75 → mixed
	add(1, 3, 0.75, 0.5)
	add(2, 4, 1, 0) // single in-edge of 4 with p=1
	add(4, 1, 0, 0) // in-edge of 1 dead under topic 0
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, g.PieceProbs(topic.SingleTopic(0))
}

func TestLayoutPositionOrder(t *testing.T) {
	g, probs := layoutTestGraph(t)
	lay, err := g.Layout(probs)
	if err != nil {
		t.Fatal(err)
	}
	inOff, _ := g.InCSR()
	for v := int32(0); v < int32(g.N()); v++ {
		_, eids := g.InNeighbors(v)
		for i, eid := range eids {
			if got, want := lay.InProbs[inOff[v]+int64(i)], probs[eid]; got != want {
				t.Fatalf("InProbs of node %d pos %d = %v, want %v", v, i, got, want)
			}
		}
	}
	pos := 0
	for u := int32(0); u < int32(g.N()); u++ {
		_, eids := g.OutNeighbors(u)
		for i, eid := range eids {
			if got, want := lay.OutProbs[pos], probs[eid]; got != want {
				t.Fatalf("OutProbs of node %d pos %d = %v, want %v", u, i, got, want)
			}
			pos++
		}
	}
}

func TestLayoutUniformityDetection(t *testing.T) {
	g, probs := layoutTestGraph(t)
	lay, err := g.Layout(probs)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    int32
		want float64
	}{
		{0, 0},     // no in-edges
		{1, 0},     // single dead in-edge
		{2, 0.25},  // uniform fractional
		{3, -0.75}, // mixed: the negated largest probability
		{4, 1},     // certain
	}
	for _, c := range cases {
		if got := lay.InDist[c.v].Uniform; got != c.want {
			t.Fatalf("InDist[%d].Uniform = %v, want %v", c.v, got, c.want)
		}
	}
	// No range here is longer than GeoSkipMinDeg, so none carries the
	// geometric-skip caches (TestWalkViewDropsDeadEdges checks a longer
	// one).
	for v := range lay.InDist {
		if lay.InDist[v].InvLogQ != 0 || lay.InDist[v].QD != 0 {
			t.Fatalf("node %d: unexpected geometric caches %+v", v, lay.InDist[v])
		}
	}
}

// TestWalkViewDropsDeadEdges pins what a walk reads of an explicit
// layout whose probabilities hold zeros: the exported arrays keep every
// edge in CSR position and summarize it, in both directions; the reverse
// walk view drops the zeros and summarizes what is left — so a range of
// one shared p plus zeros is uniform there — and equals the topic-built
// layout.
func TestWalkViewDropsDeadEdges(t *testing.T) {
	b := NewBuilder(12, 2)
	add := func(u, v int32, p0, p1 float64) {
		t.Helper()
		if err := b.AddEdge(u, v, topic.FromDense([]float64{p0, p1})); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 0, 0.25, 0) // in-edges of 0 under topic 0: 0.25, 0, 0.25
	add(2, 0, 0, 1)
	add(3, 0, 0.25, 0)
	for u := int32(1); u < 12; u++ { // out-edges of 0: mixed, largest 0.1
		add(0, u, 0.01*float64(u%10+1), 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	piece := topic.SingleTopic(0)
	lay, err := g.Layout(g.PieceProbs(piece))
	if err != nil {
		t.Fatal(err)
	}
	if got := lay.InDist[0].Uniform; got != -0.25 {
		t.Fatalf("exported InDist[0].Uniform = %v, want -0.25 (mixed with its zero)", got)
	}
	off, from, dist, probs := lay.Reverse()
	if got := off[1] - off[0]; got != 2 || dist[0].Uniform != 0.25 || dist[0].QD != 0 {
		t.Fatalf("reverse view of node 0: %d edges, %+v; want 2 uniform at 0.25", got, dist[0])
	}
	if d, q := lay.OutDist[0], 0.1; d.Uniform != -q || d.InvLogQ != 1/math.Log(1-q) || d.QD != math.Pow(1-q, 11) {
		t.Fatalf("OutDist[0] = %+v, want mixed at q = %v over 11 edges", d, q)
	}
	topicLay, err := g.PieceLayout(piece)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(off, topicLay.InOff) || !slices.Equal(from, topicLay.InFrom) || !slices.Equal(dist, topicLay.InDist) || !slices.Equal(probs, topicLay.InProbs) {
		t.Fatal("explicit reverse view differs from the topic-built layout")
	}
}

func TestLayoutWCGraphAllUniform(t *testing.T) {
	// Weighted-cascade probabilities (p = 1/indeg) must mark every node
	// with in-edges as uniform — the case the geometric-skip sampler
	// relies on.
	b := NewBuilder(6, 1)
	edges := [][2]int32{{0, 1}, {2, 1}, {3, 1}, {0, 4}, {1, 4}, {2, 5}}
	indeg := map[int32]int{}
	for _, e := range edges {
		indeg[e[1]]++
	}
	for _, e := range edges {
		p := topic.FromDense([]float64{1 / float64(indeg[e[1]])})
		if err := b.AddEdge(e[0], e[1], p); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lay, err := g.Layout(g.PieceProbs(topic.SingleTopic(0)))
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < int32(g.N()); v++ {
		d := lay.InDist[v]
		if g.InDegree(v) == 0 {
			if d.Uniform != 0 {
				t.Fatalf("source node %d: Uniform = %v", v, d.Uniform)
			}
			continue
		}
		want := 1 / float64(g.InDegree(v))
		if d.Uniform != want {
			t.Fatalf("node %d: Uniform = %v, want %v", v, d.Uniform, want)
		}
	}
}

func TestLayoutValidatesLength(t *testing.T) {
	g, _ := layoutTestGraph(t)
	if _, err := g.Layout(make([]float64, 2)); err == nil {
		t.Fatal("short probability vector accepted")
	}
}
