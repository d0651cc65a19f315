package graph

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"oipa/internal/topic"
)

func cacheTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6, 4)
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}
	for i, e := range edges {
		v := topic.Vector{Idx: []int32{int32(i % 4)}, Val: []float64{0.5}}
		if err := b.AddEdge(e[0], e[1], v); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLayoutCacheHitReturnsSameLayout(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewLayoutCache(g, 4)
	t1 := topic.SingleTopic(0)
	l1, err := c.Get(t1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.Get(topic.SingleTopic(0))
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("second Get for an equal vector rebuilt the layout")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	// The cached layout must mean what a direct build means: per node,
	// the same dispatch metadata and the same live (from, p) in-edges in
	// the same order — array positions differ, the cached one is pruned.
	direct, err := g.Layout(g.PieceProbs(t1))
	if err != nil {
		t.Fatal(err)
	}
	sameMeaning(t, l1, direct)
}

// liveEdge is one in-edge a walk can cross.
type liveEdge struct {
	from int32
	p    float64
}

// liveIn lists node v's in-edges with p > 0 in layout order.
func liveIn(l *PieceLayout, v int) []liveEdge {
	var out []liveEdge
	for pos := l.InOff[v]; pos < l.InOff[v+1]; pos++ {
		if p := l.InProbs[pos]; p > 0 {
			out = append(out, liveEdge{l.InFrom[pos], p})
		}
	}
	return out
}

// sameMeaning fails unless the two layouts walk the same per-piece graph:
// reverse walk views equal array for array.
func sameMeaning(t *testing.T, got, want *PieceLayout) {
	t.Helper()
	o1, f1, d1, p1 := got.Reverse()
	o2, f2, d2, p2 := want.Reverse()
	if !slices.Equal(o1, o2) || !slices.Equal(f1, f2) || !slices.Equal(d1, d2) || !slices.Equal(p1, p2) {
		t.Fatal("reverse walk views differ")
	}
}

func TestLayoutCacheConcurrentDedup(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewLayoutCache(g, 4)
	const workers = 16
	layouts := make([]*PieceLayout, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lay, err := c.Get(topic.SingleTopic(1))
			if err != nil {
				t.Error(err)
				return
			}
			layouts[w] = lay
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if layouts[w] != layouts[0] {
			t.Fatal("concurrent Gets returned different layout instances")
		}
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Fatalf("%d misses for %d concurrent Gets of one vector, want exactly 1 build", misses, workers)
	}
}

// A layout outside the strong window is still a hit, with the same
// pointer, while a caller holds it; one inside the window is a hit though
// no caller holds it.
func TestLayoutCacheHitsLiveLayouts(t *testing.T) {
	c := NewLayoutCache(cacheTestGraph(t), 1)
	get := func(z int32) *PieceLayout {
		lay, err := c.Get(topic.SingleTopic(z))
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	held := get(0)
	get(1)
	get(2) // the window now holds only piece 2
	runtime.GC()
	runtime.GC()
	if again := get(0); again != held {
		t.Fatal("a layout its caller still holds was rebuilt")
	}
	get(2)
	if hits, misses := c.Stats(); hits != 2 || misses != 3 {
		t.Fatalf("stats = (%d hits, %d misses), want (2, 3)", hits, misses)
	}
	runtime.KeepAlive(held)
}

// Once nothing holds a layout and a collection has run, the cache counts
// neither it nor its bytes, its entry leaves the index, and the next Get
// of its piece rebuilds it.
func TestLayoutCacheForgetsUnheldLayouts(t *testing.T) {
	c := NewLayoutCache(cacheTestGraph(t), 0)
	for z := int32(0); z < 3; z++ {
		if _, err := c.Get(topic.SingleTopic(z)); err != nil {
			t.Fatal(err)
		}
	}
	indexed := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.entries)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		if c.Len() == 0 && c.MemUsage() == 0 && indexed() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("10 s after its layouts were dropped: Len %d, MemUsage %d, %d entries indexed", c.Len(), c.MemUsage(), indexed())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Get(topic.SingleTopic(0)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("stats = (%d hits, %d misses), want (0, 4): a collected layout must be rebuilt", hits, misses)
	}
}

// Concurrent Gets of one vector, raced against a goroutine that gets the
// layout, drops it and collects — which may take the layout between its
// build and a waiter's wake-up — always return a layout of the piece.
func TestLayoutCacheGetRacesCollection(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewLayoutCache(g, 0)
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	for r := 0; r < rounds; r++ {
		piece := topic.SingleTopic(int32(r % 2))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(piece); err != nil {
				t.Error(err)
			}
			runtime.GC()
		}()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lay, err := c.Get(piece)
				if err != nil {
					t.Error(err)
					return
				}
				if lay == nil || len(lay.InOff) != g.N()+1 {
					t.Error("Get returned no layout of the piece")
				}
			}()
		}
		wg.Wait()
	}
}

func TestLayoutCacheRejectsBadVectors(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewLayoutCache(g, 2)
	if _, err := c.Get(topic.SingleTopic(99)); err == nil {
		t.Fatal("Get accepted a topic index outside the graph's topic space")
	}
	if c.Len() != 0 {
		t.Fatal("rejected vector left a cache entry behind")
	}
}
