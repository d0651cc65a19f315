package cascade

import (
	"slices"
	"sync"
	"testing"

	"oipa/internal/graph"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// TestSimulatorsShareOneLazyForwardBuild creates simulators on one
// cache-built layout from many goroutines at once (what every
// /v1/simulate worker does): the layout must build its forward side
// exactly once — its accounted size grows by one forward side, not by one
// per simulator — and every simulator must run the cascades a simulator
// over the explicit-probability layout runs. Meaningful under -race.
func TestSimulatorsShareOneLazyForwardBuild(t *testing.T) {
	r := xrand.New(6)
	const n, m = 400, 4000
	b := graph.NewBuilder(n, 3)
	seen := map[[2]int32]bool{}
	for b.M() < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		dense := make([]float64, 3)
		dense[r.Intn(3)] = 0.05 + 0.3*r.Float64()
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	piece := topic.Vector{Idx: []int32{0, 2}, Val: []float64{0.5, 0.5}}
	cached, err := graph.NewLayoutCache(g, 1).Get(piece)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := g.Layout(g.PieceProbs(piece))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int32{1, 17, 99}
	var want []int32
	NewSimulatorLayout(explicit).Run(seeds, xrand.Derive(3, 0), &want)

	before := cached.MemUsage()
	const workers = 12
	got := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			NewSimulatorLayout(cached).Run(seeds, xrand.Derive(3, 0), &got[w])
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !slices.Equal(got[w], want) {
			t.Fatalf("simulator %d over the cached layout activated %v, explicit layout %v", w, got[w], want)
		}
	}
	// One forward side is the pruned forward view: the same live edges
	// as the reverse layout, so the same bytes.
	if grew, one := cached.MemUsage()-before, before; grew != one {
		t.Fatalf("%d simulators grew the layout by %d bytes, one forward side is %d", workers, grew, one)
	}
}
