package graph

import (
	"sync"

	"oipa/internal/topic"
)

// LayoutCache caches topic-built PieceLayouts (Graph.PieceLayout) keyed
// by topic-vector hash, so repeated Prepare calls over the same pieces —
// parameter sweeps re-running a campaign, or a long-running query service
// answering many requests over one graph — stop paying the O(n + m)
// rebuild.
//
// The cache is safe for concurrent use. Concurrent Get calls for the same
// vector are de-duplicated: one goroutine builds, the rest wait for the
// finished layout (layouts are immutable and shared freely afterwards).
// Eviction is LRU over completed entries once the entry count exceeds the
// capacity; in-flight builds are never evicted.
type LayoutCache struct {
	g        *Graph
	capacity int

	mu      sync.Mutex
	entries map[uint64][]*layoutEntry // hash -> collision chain
	size    int
	clock   int64 // LRU clock, advanced on every hit/insert

	hits, misses int64
}

type layoutEntry struct {
	t       topic.Vector
	lay     *PieceLayout
	ready   chan struct{} // closed when lay is set
	lastUse int64
}

// NewLayoutCache returns a cache over g holding at most capacity layouts
// (capacity <= 0 means unbounded). A cached layout is the piece's pruned
// reverse CSR: 12 bytes per live edge (an edge the piece gives a positive
// probability) plus 32 per node, and a further 8 per graph edge and 24
// per node once a forward simulation has asked for the forward side
// (MemUsage reports what is actually held). Services size the capacity to
// the number of distinct pieces they expect to be hot.
func NewLayoutCache(g *Graph, capacity int) *LayoutCache {
	return &LayoutCache{g: g, capacity: capacity, entries: make(map[uint64][]*layoutEntry)}
}

// Graph returns the graph the cache builds layouts for.
func (c *LayoutCache) Graph() *Graph { return c.g }

// Get returns the PieceLayout of a piece with topic distribution t,
// building (and caching) it on first use. The returned layout is shared:
// it is immutable and safe for concurrent use by any number of samplers
// and simulators.
func (c *LayoutCache) Get(t topic.Vector) (*PieceLayout, error) {
	if err := c.g.checkPiece(t); err != nil {
		return nil, err
	}
	h := t.Hash()

	c.mu.Lock()
	for _, e := range c.entries[h] {
		if e.t.Equal(t) {
			c.hits++
			c.clock++
			e.lastUse = c.clock
			c.mu.Unlock()
			<-e.ready
			return e.lay, nil
		}
	}
	// Miss: insert an in-flight entry so concurrent requests for the same
	// vector wait for this build instead of duplicating it.
	c.misses++
	c.clock++
	e := &layoutEntry{t: t.Clone(), ready: make(chan struct{}), lastUse: c.clock}
	c.entries[h] = append(c.entries[h], e)
	c.size++
	c.evictLocked()
	c.mu.Unlock()

	e.lay = c.g.pieceLayout(e.t)
	close(e.ready)
	return e.lay, nil
}

// evictLocked drops least-recently-used completed entries until the size
// is back within capacity. In-flight entries (ready not yet closed) are
// skipped: a waiter holds a reference to them.
func (c *LayoutCache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for c.size > c.capacity {
		var (
			oldHash  uint64
			oldEntry *layoutEntry
		)
		for h, chain := range c.entries {
			for _, e := range chain {
				select {
				case <-e.ready:
				default:
					continue // in-flight
				}
				if oldEntry == nil || e.lastUse < oldEntry.lastUse {
					oldHash, oldEntry = h, e
				}
			}
		}
		if oldEntry == nil {
			return // everything is in-flight; nothing evictable yet
		}
		c.removeLocked(oldHash, oldEntry)
	}
}

func (c *LayoutCache) removeLocked(h uint64, e *layoutEntry) {
	chain := c.entries[h]
	for i, x := range chain {
		if x == e {
			c.entries[h] = append(chain[:i:i], chain[i+1:]...)
			c.size--
			break
		}
	}
	if len(c.entries[h]) == 0 {
		delete(c.entries, h)
	}
}

// Len returns the number of cached (or in-flight) layouts.
func (c *LayoutCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// MemUsage sums PieceLayout.MemUsage over the completed entries: the
// bytes the cache keeps alive, forward sides included once built.
func (c *LayoutCache) MemUsage() int64 {
	c.mu.Lock()
	lays := make([]*PieceLayout, 0, c.size)
	for _, chain := range c.entries {
		for _, e := range chain {
			select {
			case <-e.ready:
				lays = append(lays, e.lay)
			default: // in-flight
			}
		}
	}
	c.mu.Unlock()
	b := int64(0)
	for _, lay := range lays {
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
