package rrset

import (
	"testing"

	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// BenchmarkSampleMRRTopic measures MRR sampling in the shape a cold
// prepare samples: the dblp preset at scale 0.05 and seed 42 (n = 25k,
// m = 300k, 9 topics, 2 per edge), three pieces each a sparse two-topic
// Dirichlet mixture, topic-built layouts prebuilt, θ = 100k. Unlike the
// WC benchmarks its in-ranges are mixed, most with a small largest
// probability — the bounded geometric-skip case of the walker.
func BenchmarkSampleMRRTopic(b *testing.B) {
	d, err := gen.Build(gen.Preset("dblp"), 0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	g := d.G
	rng := xrand.New(1)
	layouts := make([]*graph.PieceLayout, 3)
	for j := range layouts {
		if layouts[j], err = g.PieceLayout(topic.Dirichlet(g.Z(), 0.5, 2, rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleMRRLayouts(g, layouts, 100_000, 7); err != nil {
			b.Fatal(err)
		}
	}
}
