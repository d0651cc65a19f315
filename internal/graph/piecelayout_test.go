package graph

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// sparseTopicGraph builds a random graph over z topics whose edges keep
// `keep` topics each, so most pieces give most edges probability zero.
func sparseTopicGraph(tb testing.TB, seed uint64, n, m, z, keep int) *Graph {
	tb.Helper()
	rng := xrand.New(seed)
	b := NewBuilder(n, z)
	seen := make(map[[2]int32]bool, m)
	for b.M() < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		dense := make([]float64, z)
		for _, k := range rng.Perm(z)[:keep] {
			dense[k] = 0.6 * rng.Float64()
		}
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			tb.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestFusedDotEqualsVectorDot pins the arithmetic the pruned layout rests
// on: the streaming dense-lookup dot of PieceLayout equals
// Vector.Dot — and therefore PieceProbs — bit for bit, on random sparse
// piece vectors (zeros stored explicitly, weights above 1, empty vectors
// included).
func TestFusedDotEqualsVectorDot(t *testing.T) {
	const z = 9
	g := sparseTopicGraph(t, 3, 200, 2400, z, 2)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var piece topic.Vector
		for k := 0; k < z; k++ {
			switch r.Intn(4) {
			case 0:
				piece.Idx, piece.Val = append(piece.Idx, int32(k)), append(piece.Val, r.Float64())
			case 1:
				piece.Idx, piece.Val = append(piece.Idx, int32(k)), append(piece.Val, 3*r.Float64())
			case 2:
				piece.Idx, piece.Val = append(piece.Idx, int32(k)), append(piece.Val, 0)
			}
		}
		lay, err := g.PieceLayout(piece)
		if err != nil {
			t.Fatal(err)
		}
		probs := g.PieceProbs(piece)
		for v := int32(0); v < int32(g.N()); v++ {
			from, eids := g.InNeighbors(v)
			var want []liveEdge
			for i, eid := range eids {
				if p := probs[eid]; p > 0 {
					want = append(want, liveEdge{from[i], p})
				}
			}
			got := liveIn(lay, int(v))
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].from != want[i].from || math.Float64bits(got[i].p) != math.Float64bits(want[i].p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPieceLayoutMatchesExplicitLayout checks the two constructors agree
// on the layout test graph, which exercises every NodeDist case, and that
// the pruned arrays hold no dead edge.
func TestPieceLayoutMatchesExplicitLayout(t *testing.T) {
	g, probs := layoutTestGraph(t)
	want, err := g.Layout(probs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.PieceLayout(topic.SingleTopic(0))
	if err != nil {
		t.Fatal(err)
	}
	sameMeaning(t, got, want)
	if len(got.InOff) != g.N()+1 || int(got.InOff[g.N()]) != len(got.InFrom) || len(got.InFrom) != len(got.InProbs) {
		t.Fatalf("pruned CSR shape: %d offsets, last %d, %d sources, %d probabilities", len(got.InOff), got.InOff[g.N()], len(got.InFrom), len(got.InProbs))
	}
	for pos, p := range got.InProbs {
		if !(p > 0) {
			t.Fatalf("pruned layout stores probability %v at position %d", p, pos)
		}
	}
	if live := len(liveIn(want, 1)); live != 0 || got.InOff[2]-got.InOff[1] != 0 {
		t.Fatal("node 1's dead in-edge survived pruning")
	}
	if got.OutProbs != nil || got.OutDist != nil {
		t.Fatal("topic-built layout filled its forward fields at construction")
	}
}

// TestForwardBuiltOnceUnderRace has many goroutines ask one topic-built
// layout — and a by-value copy of it — for the forward side at once: all
// must see the same arrays, equal to the explicit constructor's, and the
// layout's accounted size must grow by exactly one forward side.
func TestForwardBuiltOnceUnderRace(t *testing.T) {
	g := sparseTopicGraph(t, 5, 300, 3000, 4, 2)
	piece := topic.Vector{Idx: []int32{0, 2}, Val: []float64{0.4, 0.6}}
	lay, err := g.PieceLayout(piece)
	if err != nil {
		t.Fatal(err)
	}
	before := lay.MemUsage()
	cp := *lay
	const workers = 16
	dists := make([][]NodeDist, workers)
	probs := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := lay
			if w%2 == 1 {
				l = &cp
			}
			_, _, dists[w], probs[w] = l.Forward()
			_ = l.MemUsage()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &dists[w][0] != &dists[0][0] || &probs[w][0] != &probs[0][0] {
			t.Fatalf("goroutine %d saw a different forward build", w)
		}
	}
	want, err := g.Layout(g.PieceProbs(piece))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(probs[0], want.OutProbs) || !slices.Equal(dists[0], want.OutDist) {
		t.Fatal("lazily built forward side differs from the explicit constructor's")
	}
	if got, want := lay.MemUsage()-before, int64(8*g.M()+24*g.N()); got != want {
		t.Fatalf("forward side accounted as %d bytes, want %d", got, want)
	}
}
