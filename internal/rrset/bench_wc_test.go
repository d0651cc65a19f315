package rrset

import (
	"testing"

	"oipa/internal/graph"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// wcGraph builds a weighted-cascade benchmark graph: a power-law-ish
// out-degree sequence with every in-edge of v carrying probability
// 1/indeg(v) — the standard WC weighting under which all in-edges of a
// node share one probability (the uniform case the geometric-skip
// sampler targets).
func wcGraph(tb testing.TB, seed uint64, n, m int) (*graph.Graph, [][]float64) {
	tb.Helper()
	r := xrand.New(seed)
	type edge struct{ u, v int32 }
	seen := make(map[edge]bool, m)
	edges := make([]edge, 0, m)
	indeg := make([]int, n)
	for len(edges) < m {
		// Skewed sources: hubs get many out-edges, so in-degrees skew too.
		u := int32(r.PowerLaw(1, float64(n), 2.1)) - 1
		v := int32(r.Intn(n))
		if u == v || u < 0 || int(u) >= n || seen[edge{u, v}] {
			continue
		}
		seen[edge{u, v}] = true
		edges = append(edges, edge{u, v})
		indeg[v]++
	}
	b := graph.NewBuilder(n, 1)
	for _, e := range edges {
		p := topic.Vector{Idx: []int32{0}, Val: []float64{1 / float64(indeg[e.v])}}
		if err := b.AddEdge(e.u, e.v, p); err != nil {
			tb.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	probs := g.PieceProbs(topic.SingleTopic(0))
	return g, [][]float64{probs, probs}
}

// BenchmarkSampleMRR_WC measures MRR sampling throughput on the WC
// benchmark graph (the acceptance workload for the geometric-skip
// engine; see BENCH.md). Layouts are prebuilt, as core.Prepare does.
func BenchmarkSampleMRR_WC(b *testing.B) {
	g, probs := wcGraph(b, 42, 20000, 400000)
	layouts := make([]*graph.PieceLayout, len(probs))
	for j := range probs {
		lay, err := g.Layout(probs[j])
		if err != nil {
			b.Fatal(err)
		}
		layouts[j] = lay
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleMRRLayouts(g, layouts, 20000, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendTo_WC measures one-piece RR collection growth on the
// same WC graph, layout prebuilt.
func BenchmarkExtendTo_WC(b *testing.B) {
	g, probs := wcGraph(b, 42, 20000, 400000)
	lay, err := g.Layout(probs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extend(b, newCollection1(lay, uint64(i)), 40000)
	}
}

// BenchmarkSampler_GeoSkipVsFlip isolates the algorithmic change: the
// same engine, same layout data, with uniformity detection on (geoskip)
// versus defeated (flip — the per-edge coin-flip strategy the seed engine
// used). The ratio is the per-edge-RNG saving net of shared overheads;
// BENCH.md records the numbers.
func BenchmarkSampler_GeoSkipVsFlip(b *testing.B) {
	g, probs := wcGraph(b, 42, 20000, 400000)
	lay, err := g.Layout(probs[0])
	if err != nil {
		b.Fatal(err)
	}
	flip := flipLayout(lay)
	for _, bc := range []struct {
		name string
		lay  *graph.PieceLayout
	}{{"geoskip", lay}, {"flip", flip}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				extend(b, newCollection1(bc.lay, uint64(i)), 40000)
			}
		})
	}
}
