package graph_test

import (
	"testing"

	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// benchmarkGraph is the graph benchmark/ serves: dblp×0.05 at seed 42
// (n = 25k, m = 300k, 9 topics, 2 per edge).
func benchmarkGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	d, err := gen.Build(gen.Preset("dblp"), 0.05, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return d.G
}

// TestCachedLayoutIsHalfTheUnprunedSize pins the memory claim on the
// benchmark graph: a cache-built layout of a 2-of-9-topics piece holds at
// most half of the 16·m + 48·n bytes an unpruned two-direction layout
// costs, and no more than its reverse arrays.
func TestCachedLayoutIsHalfTheUnprunedSize(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 300k-edge benchmark graph")
	}
	g := benchmarkGraph(t)
	unpruned := int64(16*g.M() + 48*g.N())
	cache := graph.NewLayoutCache(g, 4)
	rng := xrand.New(1)
	for i := 0; i < 3; i++ {
		lay, err := cache.Get(topic.Dirichlet(g.Z(), 0.5, 2, rng))
		if err != nil {
			t.Fatal(err)
		}
		if got := lay.MemUsage(); got > unpruned/2 {
			t.Fatalf("piece %d: cache-built layout holds %d bytes, more than half of the unpruned %d", i, got, unpruned)
		}
		if want := int64(8*len(lay.InOff) + 4*len(lay.InFrom) + 8*len(lay.InProbs) + 24*len(lay.InDist)); lay.MemUsage() != want {
			t.Fatalf("piece %d: MemUsage %d, reverse arrays alone are %d", i, lay.MemUsage(), want)
		}
	}
	explicit, err := g.Layout(g.PieceProbs(topic.SingleTopic(0)))
	if err != nil {
		t.Fatal(err)
	}
	if got := explicit.MemUsage(); got != unpruned {
		t.Fatalf("explicit layout accounts %d bytes, want 16m+48n = %d", got, unpruned)
	}
}

// BenchmarkLayoutBuild compares the two constructors on the benchmark
// graph: "explicit" is PieceProbs + Layout (what the cache built before
// layouts were pruned), "topic" is PieceLayout.
func BenchmarkLayoutBuild(b *testing.B) {
	g := benchmarkGraph(b)
	piece := topic.Dirichlet(g.Z(), 0.5, 2, xrand.New(1))
	b.Run("explicit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Layout(g.PieceProbs(piece)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.PieceLayout(piece); err != nil {
				b.Fatal(err)
			}
		}
	})
}
