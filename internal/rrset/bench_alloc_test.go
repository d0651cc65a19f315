package rrset

import (
	"runtime"
	"testing"

	"oipa/internal/graph"
)

// benchHeapMB forces a GC and returns the live heap in MiB. Called right
// after an op, before the op's garbage is collected it would overstate
// the footprint, so callers GC first; the interesting number is the heap
// *retained* by the collection plus the allocator slack the build left
// behind.
func benchHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkExtendToLargeTheta_WC is the acceptance workload for the
// sharded-store change: grow a one-piece collection to θ = 10^6 on
// the WC benchmark graph. -benchmem's B/op counts every byte the build
// allocates — the post-sampling stitch copy of the pre-shard engine
// shows up there as an extra O(TotalSize) arena — and the heap-MB
// metric is the live footprint retained afterwards.
func BenchmarkExtendToLargeTheta_WC(b *testing.B) {
	g, probs := wcGraph(b, 42, 20000, 400000)
	lay, err := g.Layout(probs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var heap float64
	for i := 0; i < b.N; i++ {
		c := newCollection1(lay, uint64(i))
		extend(b, c, 1_000_000)
		b.StopTimer() // keep the heap probe's forced GC out of ns/op
		heap = benchHeapMB()
		b.StartTimer()
		if c.TotalSize() == 0 {
			b.Fatal("empty collection")
		}
	}
	b.ReportMetric(heap, "live-heap-MB")
}

// BenchmarkBuildIndex_WC measures the index build (counting walk plus
// fill pass) over a θ = 100k weighted-cascade collection.
func BenchmarkBuildIndex_WC(b *testing.B) {
	g, probs := wcGraph(b, 42, 20000, 400000)
	m, err := SampleMRR(g, probs, 100_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]int32, 2000)
	for i := range pool {
		pool[i] = int32(i * 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.BuildIndex(pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleMRRLargeTheta_WC is the MRR analogue: θ = 500,000
// two-piece samples = 10^6 RR sets per op.
func BenchmarkSampleMRRLargeTheta_WC(b *testing.B) {
	g, probs := wcGraph(b, 42, 20000, 400000)
	layouts := make([]*graph.PieceLayout, len(probs))
	for j := range probs {
		lay, err := g.Layout(probs[j])
		if err != nil {
			b.Fatal(err)
		}
		layouts[j] = lay
	}
	b.ReportAllocs()
	b.ResetTimer()
	var heap float64
	for i := 0; i < b.N; i++ {
		m, err := SampleMRRLayouts(g, layouts, 500_000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer() // keep the heap probe's forced GC out of ns/op
		heap = benchHeapMB()
		b.StartTimer()
		if m.TotalSize() == 0 {
			b.Fatal("empty collection")
		}
	}
	b.ReportMetric(heap, "live-heap-MB")
}
