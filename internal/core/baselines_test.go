package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// starGraph builds hubs each deterministically covering a disjoint set of
// leaves: hub h (node h) points at its `size` leaves with probability 1.
// Optimal k-cover is the k largest hubs.
func starGraph(t testing.TB, sizes []int) (*graph.Graph, []float64, []int32) {
	t.Helper()
	total := len(sizes)
	for _, s := range sizes {
		total += s
	}
	b := graph.NewBuilder(total, 1)
	leaf := len(sizes)
	hubs := make([]int32, len(sizes))
	for h, s := range sizes {
		hubs[h] = int32(h)
		for i := 0; i < s; i++ {
			if err := b.AddEdge(int32(h), int32(leaf), topic.SingleTopic(0)); err != nil {
				t.Fatal(err)
			}
			leaf++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, g.PieceProbs(topic.SingleTopic(0)), hubs
}

// coverIndex samples theta RR sets of g under probs as a one-piece
// collection and indexes them over pool.
func coverIndex(t testing.TB, g *graph.Graph, probs []float64, pool []int32, theta int, seed uint64) *rrset.Index {
	t.Helper()
	col, err := rrset.SampleMRR(g, [][]float64{probs}, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := col.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// coverCount counts the samples whose piece-0 set holds any of seeds.
func coverCount(v *rrset.MRRView, seeds []int32) int {
	covered := 0
	for i := 0; i < v.Theta(); i++ {
		for _, u := range v.Set(i, 0) {
			if slices.Contains(seeds, u) {
				covered++
				break
			}
		}
	}
	return covered
}

func TestGreedyCoverPicksLargestHubs(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{50, 30, 20, 5, 2})
	ix := coverIndex(t, g, probs, hubs, 20000, 7)
	seeds, err := greedyCover(ix, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seeds, []int32{0, 1}) {
		t.Fatalf("seeds = %v, want [0 1] (largest hubs)", seeds)
	}
	// Spread estimate ≈ hubs' true reach: 2 hubs + 80 leaves = 82.
	v := ix.MRR()
	if spread := float64(v.N()) * float64(coverCount(v, seeds)) / float64(v.Theta()); math.Abs(spread-82) > 3 {
		t.Fatalf("spread = %v, want about 82", spread)
	}
}

func TestGreedyCoverMatchesBruteForceOnTinyInstances(t *testing.T) {
	// Greedy coverage must be within (1-1/e) of the brute-force optimum on
	// random small instances (and usually equal).
	for seed := uint64(0); seed < 15; seed++ {
		r := xrand.New(seed)
		n := 12 + r.Intn(8)
		b := graph.NewBuilder(n, 1)
		added := map[[2]int32]bool{}
		for e := 0; e < 3*n; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v || added[[2]int32{u, v}] {
				continue
			}
			added[[2]int32{u, v}] = true
			p := topic.Vector{Idx: []int32{0}, Val: []float64{0.3 + 0.7*r.Float64()}}
			if err := b.AddEdge(u, v, p); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		candidates := make([]int32, n)
		for i := range candidates {
			candidates[i] = int32(i)
		}
		ix := coverIndex(t, g, g.PieceProbs(topic.SingleTopic(0)), candidates, 2000, seed)
		const k = 3
		seeds, err := greedyCover(ix, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over all k-subsets.
		best := 0
		var rec func(start int, chosen []int32)
		rec = func(start int, chosen []int32) {
			if len(chosen) == k {
				best = max(best, coverCount(ix.MRR(), chosen))
				return
			}
			for i := start; i < n; i++ {
				rec(i+1, append(chosen, int32(i)))
			}
		}
		rec(0, nil)
		if got := coverCount(ix.MRR(), seeds); float64(got) < (1-1/math.E)*float64(best)-1e-9 {
			t.Fatalf("seed %d: greedy coverage %d below (1-1/e)·OPT (%d)", seed, got, best)
		}
	}
}

func TestGreedyCoverStopsWhenNothingLeft(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{5, 3})
	ix := coverIndex(t, g, probs, hubs, 500, 1)
	// Ask for more seeds than useful candidates: selection stops early.
	seeds, err := greedyCover(ix, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) > 2 {
		t.Fatalf("selected %d seeds from 2 useful hubs", len(seeds))
	}
}

func TestGreedyCoverValidates(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{2})
	ix := coverIndex(t, g, probs, hubs, 10, 1)
	for _, k := range []int{0, -1} {
		if _, err := greedyCover(ix, 0, k); err == nil {
			t.Fatalf("budget %d accepted", k)
		}
	}
}

// BenchmarkSolveIM times the IM baseline end to end on a star graph:
// sampling θ = 50 000 RR sets of the uniform mixture, indexing them over
// the hubs, the greedy cover, and the single-piece assignment.
func BenchmarkSolveIM(b *testing.B) {
	g, _, hubs := starGraph(b, []int{100, 80, 60, 40, 20, 10, 5, 3, 2, 1})
	p := &Problem{
		G:        g,
		Campaign: topic.Campaign{Name: "star", Pieces: []topic.Piece{{Name: "t", Dist: topic.SingleTopic(0)}}},
		Pool:     hubs,
		K:        5,
		Model:    logistic.Model{Alpha: 2, Beta: 1},
	}
	inst, err := Prepare(context.Background(), p, 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), inst, "im", BABOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
