package graph

import (
	"runtime"
	"sync"
	"weak"

	"oipa/internal/topic"
)

// LayoutCache indexes topic-built PieceLayouts (Graph.PieceLayout) by
// topic-vector hash, so a Get for a piece whose layout is still alive —
// held by a prepared instance, by a request in flight, or by anything
// else — returns that layout instead of paying the O(n + m) rebuild.
//
// The cache does not own what it indexes: each entry holds its layout
// through a weak pointer, and only the capacity most recently used
// layouts are also held strongly (the strong window). A layout nothing
// else holds is collected, its entry leaves the index, and the next Get
// of that piece rebuilds it. Layout memory is therefore what its holders
// keep alive plus the strong window, not the number of distinct pieces
// ever requested.
//
// The cache is safe for concurrent use. Concurrent Get calls for the same
// vector are de-duplicated: one goroutine builds, the rest wait for the
// finished layout and receive it whether or not the builder still holds
// it (layouts are immutable and shared freely afterwards).
type LayoutCache struct {
	g        *Graph
	capacity int

	mu      sync.Mutex
	entries map[uint64][]*layoutEntry // hash -> collision chain
	recent  []*PieceLayout            // strong window, least recently used first

	hits, misses int64
}

type layoutEntry struct {
	t     topic.Vector
	lay   weak.Pointer[PieceLayout] // set once the build completes
	build *layoutBuild              // non-nil while the build is in flight
}

// layoutBuild is one in-flight build. Its waiters hold it, and through it
// the layout, until they return; the entry drops it once the build ends.
type layoutBuild struct {
	done chan struct{} // closed when lay is set
	lay  *PieceLayout
}

// NewLayoutCache returns a cache over g whose strong window holds the
// capacity most recently used layouts alive (capacity <= 0: none, so a
// layout lives exactly as long as a caller holds it). A layout is the
// piece's pruned reverse CSR: 12 bytes per live edge (an edge the piece
// gives a positive probability) plus 32 per node.
func NewLayoutCache(g *Graph, capacity int) *LayoutCache {
	return &LayoutCache{g: g, capacity: max(capacity, 0), entries: make(map[uint64][]*layoutEntry)}
}

// Graph returns the graph the cache builds layouts for.
func (c *LayoutCache) Graph() *Graph { return c.g }

// Get returns the PieceLayout of a piece with topic distribution t: the
// live layout of an equal vector when there is one (a hit), otherwise a
// fresh build (a miss). The returned layout is shared: it is immutable
// and safe for concurrent use by any number of samplers.
func (c *LayoutCache) Get(t topic.Vector) (*PieceLayout, error) {
	if err := c.g.checkPiece(t); err != nil {
		return nil, err
	}
	h := t.Hash()

	c.mu.Lock()
	for _, e := range c.entries[h] {
		if !e.t.Equal(t) {
			continue
		}
		if b := e.build; b != nil {
			c.hits++
			c.mu.Unlock()
			<-b.done
			return b.lay, nil
		}
		if lay := e.lay.Value(); lay != nil {
			c.hits++
			c.touchLocked(lay)
			c.mu.Unlock()
			return lay, nil
		}
		// Collected, its cleanup not yet run: a new entry replaces it.
		c.removeLocked(h, e)
		break
	}
	// Miss: insert an in-flight entry so concurrent requests for the same
	// vector wait for this build instead of duplicating it.
	c.misses++
	b := &layoutBuild{done: make(chan struct{})}
	e := &layoutEntry{t: t.Clone(), build: b}
	c.entries[h] = append(c.entries[h], e)
	c.mu.Unlock()

	lay := c.g.buildLayout(e.t.Dense(c.g.Z()))
	b.lay = lay
	close(b.done)
	runtime.AddCleanup(lay, c.remove, e)
	c.mu.Lock()
	e.lay, e.build = weak.Make(lay), nil
	c.touchLocked(lay)
	c.mu.Unlock()
	return lay, nil
}

// touchLocked makes lay the most recently used layout of the strong
// window, dropping the least recently used one when the window is full.
func (c *LayoutCache) touchLocked(lay *PieceLayout) {
	if c.capacity == 0 {
		return
	}
	i := len(c.recent) - 1
	for i >= 0 && c.recent[i] != lay {
		i--
	}
	if i < 0 && len(c.recent) < c.capacity {
		c.recent = append(c.recent, lay)
		return
	}
	i = max(i, 0)
	copy(c.recent[i:], c.recent[i+1:])
	c.recent[len(c.recent)-1] = lay
}

// remove drops e from the index once its layout has been collected.
func (c *LayoutCache) remove(e *layoutEntry) {
	c.mu.Lock()
	c.removeLocked(e.t.Hash(), e)
	c.mu.Unlock()
}

func (c *LayoutCache) removeLocked(h uint64, e *layoutEntry) {
	chain := c.entries[h]
	for i, x := range chain {
		if x == e {
			c.entries[h] = append(chain[:i:i], chain[i+1:]...)
			break
		}
	}
	if len(c.entries[h]) == 0 {
		delete(c.entries, h)
	}
}

// live returns the built layouts that are still alive.
func (c *LayoutCache) live() []*PieceLayout {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lays []*PieceLayout
	for _, chain := range c.entries {
		for _, e := range chain {
			if lay := e.lay.Value(); lay != nil {
				lays = append(lays, lay)
			}
		}
	}
	return lays
}

// Len returns the number of live built layouts in the index.
func (c *LayoutCache) Len() int { return len(c.live()) }

// MemUsage sums PieceLayout.MemUsage over the live built layouts: the
// layout bytes alive, whoever holds them.
func (c *LayoutCache) MemUsage() int64 {
	b := int64(0)
	for _, lay := range c.live() {
		b += lay.MemUsage()
	}
	return b
}

// Stats returns the cumulative hit and miss counts.
func (c *LayoutCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
