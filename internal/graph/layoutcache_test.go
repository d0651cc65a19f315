package graph

import (
	"slices"
	"sync"
	"testing"

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

func TestLayoutCacheEvictsLRU(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewLayoutCache(g, 2)
	get := func(z int32) *PieceLayout {
		lay, err := c.Get(topic.SingleTopic(z))
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	l0 := get(0)
	get(1)
	get(0)       // refresh 0: LRU is now 1
	l2 := get(2) // evicts 1
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if again := get(0); again != l0 {
		t.Fatal("entry 0 was evicted despite being recently used")
	}
	if again := get(2); again != l2 {
		t.Fatal("entry 2 was evicted despite being recently used")
	}
	hitsBefore, missesBefore := c.Stats()
	get(1) // was evicted: must rebuild
	hits, misses := c.Stats()
	if hits != hitsBefore || misses != missesBefore+1 {
		t.Fatalf("re-Get of evicted entry: stats went (%d,%d) -> (%d,%d), want one new miss",
			hitsBefore, missesBefore, hits, misses)
	}
}

// A build that completes while another is in flight evicts down to
// capacity then, not only when the next miss inserts.
func TestLayoutCacheEvictsWhenABuildCompletes(t *testing.T) {
	c := NewLayoutCache(cacheTestGraph(t), 1)
	held := &layoutEntry{t: topic.SingleTopic(0), ready: make(chan struct{})}
	c.mu.Lock()
	c.entries[held.t.Hash()] = []*layoutEntry{held}
	c.size++
	c.mu.Unlock()
	if _, err := c.Get(topic.SingleTopic(1)); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("cache holds %d layouts at capacity 1 once no build is in flight but the held one", n)
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
