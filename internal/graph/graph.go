// Package graph implements the social-network substrate of the paper
// (§III-A): a directed graph G(V, E) in which every edge e = (u, v) carries
// a topic-wise influence vector p(e); p(e|z) is the probability that u
// activates v when propagating a message entirely about topic z. For a
// viral piece with topic distribution t, the effective activation
// probability across e is p(t, e) = t · p(e).
//
// The representation is a compressed sparse row (CSR) adjacency in both
// directions: forward adjacency drives the Monte-Carlo cascade simulator
// and reverse adjacency drives reverse-reachable set sampling. Nodes are
// dense int32 identifiers in [0, N).
//
// For sampling hot paths, PieceLayout (layout.go) materializes one
// piece's homogeneous influence graph G_j (§V-A) as a reverse CSR with
// the activation probabilities in position order and per-node uniformity
// metadata, enabling sequential probability reads and geometric-skip edge
// sampling in the rrset and cascade packages. A layout built from a topic
// vector (Graph.PieceLayout, LayoutCache.Get, Multiplex.Layouts) is
// pruned — edges with p(t, e) = 0 are not in G_j and are not stored — and
// is walked through its own InOff/InFrom; a layout built from an explicit
// probability vector (Graph.Layout) is unpruned and stays position-
// aligned with Graph.InCSR/OutCSR, which is what tests and harnesses that
// index by graph position rely on. Both walk to identical sets, because a
// zero-probability edge never draws a random number.
//
// A Builder is the one way to make a Graph: the generator fills it with
// AddEdge, which copies each vector's entries into flat arrays, and Read
// decodes a file's records straight into the same arrays. Build orders
// the edges with counting passes, not a comparison sort.
package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"oipa/internal/topic"
)

// Graph is an immutable directed graph with topic-aware edge probabilities.
// Construct one with a Builder; the zero value is an empty graph.
type Graph struct {
	n int32
	z int32

	// Forward CSR: out-neighbors of u are outTo[outOff[u]:outOff[u+1]],
	// and outEdge holds the matching edge identifiers.
	outOff  []int64
	outTo   []int32
	outEdge []int32

	// Reverse CSR: in-neighbors of v are inFrom[inOff[v]:inOff[v+1]],
	// inEdge holds the identifier of the forward edge (from -> v).
	inOff  []int64
	inFrom []int32
	inEdge []int32

	// The topic-wise influence vectors, flattened in reverse-CSR position
	// order for the one streaming pass that builds a piece layout: the
	// in-edge at position pos carries topics
	// topicIdx[topicOff[pos]:topicOff[pos+1]] (ascending) with values
	// topicVal[...]. edgePos[eid] is edge eid's position, so EdgeProb
	// reads the same arrays.
	topicOff []int64
	topicIdx []int32
	topicVal []float64
	edgePos  []int32
}

// N returns the number of vertices.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.outTo) }

// Z returns the size of the topic space.
func (g *Graph) Z() int { return int(g.z) }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u int32) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v int32) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the out-neighbor slice of u and the parallel slice
// of edge identifiers. The returned slices alias internal storage and must
// not be modified.
func (g *Graph) OutNeighbors(u int32) (to []int32, edges []int32) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.outTo[lo:hi], g.outEdge[lo:hi]
}

// InNeighbors returns the in-neighbor slice of v and the parallel slice of
// forward-edge identifiers. The returned slices alias internal storage and
// must not be modified.
func (g *Graph) InNeighbors(v int32) (from []int32, edges []int32) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inFrom[lo:hi], g.inEdge[lo:hi]
}

// EdgeProb returns the topic-wise influence vector of edge eid. The
// returned vector aliases internal storage and must not be modified.
func (g *Graph) EdgeProb(eid int32) topic.Vector { return g.vectorAt(g.edgePos[eid]) }

// vectorAt is EdgeProb of the in-edge at reverse-CSR position pos. Loops
// over every edge walk positions in order: the flat arrays are laid out
// that way, and going through edgePos would read them at random.
func (g *Graph) vectorAt(pos int32) topic.Vector {
	lo, hi := g.topicOff[pos], g.topicOff[pos+1]
	return topic.Vector{Idx: g.topicIdx[lo:hi:hi], Val: g.topicVal[lo:hi:hi]}
}

// PieceProbs computes, for every edge, the activation probability of a
// viral piece with topic distribution t: p(t, e) = t · p(e), clamped into
// [0, 1]. This materializes the per-piece homogeneous influence graph the
// paper constructs for each t_j (§V-A) and is computed once per piece.
func (g *Graph) PieceProbs(t topic.Vector) []float64 {
	out := make([]float64, g.M())
	for pos, eid := range g.inEdge {
		out[eid] = clamp01(t.Dot(g.vectorAt(int32(pos))))
	}
	return out
}

// AvgDegree returns the average out-degree m/n.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.n)
}

// AvgTopicNNZ returns the average number of non-zero topic entries per
// edge; the paper reports 1.5 for the tweet dataset and uses it to explain
// why single-piece baselines collapse there.
func (g *Graph) AvgTopicNNZ() float64 {
	if g.M() == 0 {
		return 0
	}
	return float64(len(g.topicIdx)) / float64(g.M())
}

// OutDegrees returns the out-degree sequence as float64s (for the stats
// package's power-law estimator).
func (g *Graph) OutDegrees() []float64 {
	d := make([]float64, g.n)
	for u := int32(0); u < g.n; u++ {
		d[u] = float64(g.OutDegree(u))
	}
	return d
}

// Validate re-checks structural invariants. Builder and Read establish
// them as they go; tests, and FuzzRead on every graph Read accepts, use
// Validate to confirm it.
func (g *Graph) Validate() error {
	m := g.M()
	if len(g.inFrom) != m || len(g.edgePos) != m || len(g.topicOff) != m+1 {
		return errors.New("graph: CSR arrays disagree with edge count")
	}
	if len(g.outOff) != int(g.n)+1 || len(g.inOff) != int(g.n)+1 {
		return errors.New("graph: offset arrays have wrong length")
	}
	for u := int32(0); u < g.n; u++ {
		if g.outOff[u] > g.outOff[u+1] || g.inOff[u] > g.inOff[u+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", u)
		}
	}
	for i, v := range g.outTo {
		if v < 0 || v >= g.n {
			return fmt.Errorf("graph: out-edge %d targets invalid node %d", i, v)
		}
	}
	for i, v := range g.inFrom {
		if v < 0 || v >= g.n {
			return fmt.Errorf("graph: in-edge %d sources invalid node %d", i, v)
		}
	}
	for pos, eid := range g.inEdge {
		p := g.vectorAt(int32(pos))
		if err := p.Validate(); err != nil {
			return fmt.Errorf("graph: edge %d probability vector: %w", eid, err)
		}
		if nnz := p.NNZ(); nnz > 0 && p.Idx[nnz-1] >= g.z {
			return fmt.Errorf("graph: edge %d references topic %d outside [0,%d)", eid, p.Idx[nnz-1], g.z)
		}
		for _, v := range p.Val {
			if v > 1 {
				return fmt.Errorf("graph: edge %d has probability %v > 1", eid, v)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// (u, v) pairs are rejected at Build time; self-loops are allowed (they are
// harmless for reachability but generators avoid them).
//
// Edges are held flat, in insertion order: edge i runs from[i] -> to[i]
// and carries topics idx[off[i]:off[i+1]] with values val[...]. Adding an
// edge copies its vector's entries there, so it allocates nothing beyond
// the amortised growth of those arrays, and the builder holds no pointer
// per edge for the collector to scan.
type Builder struct {
	n, z     int
	from, to []int32
	off      []int64
	idx      []int32
	val      []float64
}

// NewBuilder returns a builder for a graph with n vertices over z topics.
func NewBuilder(n, z int) *Builder {
	return &Builder{n: n, z: z, off: []int64{0}}
}

// AddEdge appends a directed edge u -> v with topic-wise influence vector
// p. The vector's entries are copied, so the caller may reuse p.
func (b *Builder) AddEdge(u, v int32, p topic.Vector) error {
	if err := b.checkNodes(u, v); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("graph: edge (%d,%d): %w", u, v, err)
	}
	b.idx = append(b.idx, p.Idx...)
	b.val = append(b.val, p.Val...)
	return b.commit(u, v)
}

func (b *Builder) checkNodes(u, v int32) error {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", u, v, b.n)
	}
	return nil
}

// commit ends edge u -> v, whose topic entries are the ones idx and val
// hold past the previous edge's, already checked in order and
// non-negative. It checks them against the topic space and the
// probability ceiling and, on a refusal, drops them again.
func (b *Builder) commit(u, v int32) error {
	start := b.off[len(b.off)-1]
	idx, val := b.idx[start:], b.val[start:]
	var err error
	if nnz := len(idx); nnz > 0 && int(idx[nnz-1]) >= b.z {
		err = fmt.Errorf("graph: edge (%d,%d) references topic %d outside [0,%d)", u, v, idx[nnz-1], b.z)
	} else {
		for _, x := range val {
			if x > 1 {
				err = fmt.Errorf("graph: edge (%d,%d) has probability %v > 1", u, v, x)
				break
			}
		}
	}
	if err != nil {
		b.idx, b.val = b.idx[:start], b.val[:start]
		return err
	}
	b.from = append(b.from, u)
	b.to = append(b.to, v)
	b.off = append(b.off, int64(len(b.idx)))
	return nil
}

// M returns the number of edges added so far.
func (b *Builder) M() int { return len(b.from) }

// Build constructs the immutable Graph. Edge identifiers are assigned in
// (u, v) sorted order, making the result independent of insertion order.
//
// Two stable counting passes put the insertion indices in that order —
// by v, then by u — and edges that arrived in that order already, as
// Read receives a file Write produced, skip them. The graph's own arrays
// serve as the scratch: inEdge holds the order by v, outEdge the order
// by (u, v) until the topic arrays are laid out, and outOff the per-node
// cursor of the topic entries while they are, so Build allocates no
// edge- or node-sized array beyond the graph's own.
func (b *Builder) Build() (*Graph, error) {
	m := len(b.from)
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: edge count %d too large", m)
	}
	g := &Graph{
		n:        int32(b.n),
		z:        int32(b.z),
		outOff:   make([]int64, b.n+1),
		outTo:    make([]int32, m),
		outEdge:  make([]int32, m),
		inOff:    make([]int64, b.n+1),
		inFrom:   make([]int32, m),
		inEdge:   make([]int32, m),
		topicOff: make([]int64, m+1),
		topicIdx: make([]int32, len(b.idx)),
		topicVal: make([]float64, len(b.val)),
		edgePos:  make([]int32, m),
	}
	countOffsets(g.inOff, b.to)
	countOffsets(g.outOff, b.from)
	order := g.outEdge
	if b.sorted() {
		for i := range order {
			order[i] = int32(i)
		}
	} else {
		byTo := g.inEdge
		for i, v := range b.to {
			byTo[g.inOff[v]] = int32(i)
			g.inOff[v]++
		}
		restoreOffsets(g.inOff)
		for _, i := range byTo {
			u := b.from[i]
			order[g.outOff[u]] = i
			g.outOff[u]++
		}
		restoreOffsets(g.outOff)
	}
	// Forward CSR: edge eid sits at position eid.
	for eid, i := range order {
		g.outTo[eid] = b.to[i]
	}
	for u := 0; u < b.n; u++ {
		for eid := g.outOff[u] + 1; eid < g.outOff[u+1]; eid++ {
			if g.outTo[eid] == g.outTo[eid-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, g.outTo[eid])
			}
		}
	}

	// Reverse CSR and the topic entries, laid out by one pass over the
	// edges per part of the nodes (see layIn). outOff, free until it is
	// counted again below, becomes each node's topic-entry cursor.
	clear(g.outOff)
	for i, v := range b.to {
		g.outOff[v+1] += b.off[i+1] - b.off[i]
	}
	for v := 1; v <= b.n; v++ {
		g.outOff[v] += g.outOff[v-1]
	}
	if parts := min(runtime.GOMAXPROCS(0), m/minPartEdges); parts < 2 {
		b.layIn(g, order, 0, g.n)
	} else {
		// One part per processor, split where the in-edge count crosses
		// each multiple of m/parts; the bounds are read before any part
		// moves the inOff cursors.
		bounds := make([]int32, parts+1)
		for p := 1; p < parts; p++ {
			share := int64(m) * int64(p) / int64(parts)
			bounds[p] = int32(sort.Search(b.n, func(v int) bool { return g.inOff[v] >= share }))
		}
		bounds[parts] = g.n
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(lo, hi int32) {
				defer wg.Done()
				b.layIn(g, order, lo, hi)
			}(bounds[p], bounds[p+1])
		}
		wg.Wait()
	}
	g.topicOff[m] = int64(len(g.topicIdx))
	restoreOffsets(g.inOff)
	clear(g.outOff)
	countOffsets(g.outOff, b.from)
	for eid := range g.outEdge {
		g.outEdge[eid] = int32(eid)
	}
	return g, nil
}

// minPartEdges is the fewest edges worth a part of its own in Build's
// parallel layout: below it, starting a goroutine costs more than the
// part saves.
const minPartEdges = 1 << 16

// layIn lays out the in-edges of nodes [lo, hi) and their topic entries,
// visiting the edges in edge-id order, which for a file Write produced is
// their insertion order, so every read streams. inOff[v] is the cursor of
// v's next in-edge position and outOff[v] of its next topic entry. A
// node's positions and entries are its own, so parts over disjoint node
// ranges write disjoint memory and run in parallel; each lays out the
// same arrays whatever the split.
func (b *Builder) layIn(g *Graph, order []int32, lo, hi int32) {
	for eid, i := range order {
		v := b.to[i]
		if v < lo || v >= hi {
			continue
		}
		pos := g.inOff[v]
		g.inOff[v]++
		g.inFrom[pos] = b.from[i]
		g.inEdge[pos] = int32(eid)
		g.edgePos[eid] = int32(pos)
		dst := g.outOff[v]
		g.topicOff[pos] = dst
		for k := b.off[i]; k < b.off[i+1]; k++ {
			g.topicIdx[dst] = b.idx[k]
			g.topicVal[dst] = b.val[k]
			dst++
		}
		g.outOff[v] = dst
	}
}

// sorted reports whether the edges were added in strictly increasing
// (u, v) order, as Read receives them from a file Write produced; their
// order is then already the edge-id order.
func (b *Builder) sorted() bool {
	for i := 1; i < len(b.from); i++ {
		if b.from[i] < b.from[i-1] || b.from[i] == b.from[i-1] && b.to[i] <= b.to[i-1] {
			return false
		}
	}
	return true
}

// countOffsets fills off (len n+1, zero) with the start of each key's run
// in a sort of keys: off[k] = the number of keys below k.
func countOffsets(off []int64, keys []int32) {
	for _, k := range keys {
		off[k+1]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
}

// restoreOffsets undoes a scatter that advanced off[k] past each key k's
// run, which left off[k] where off[k+1] began.
func restoreOffsets(off []int64) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// EdgeEndpoints returns the (from, to) pair of edge eid. It costs a binary
// search over the offset array for the source; intended for tests and
// tooling, not hot paths.
func (g *Graph) EdgeEndpoints(eid int32) (from, to int32) {
	// The forward CSR stores edges grouped by source in sorted order; find
	// the position of eid in outEdge. Edge ids are assigned in (u,v) order,
	// which is exactly the forward CSR layout, so position == eid.
	pos := int64(eid)
	u := int32(sort.Search(int(g.n), func(u int) bool { return g.outOff[u+1] > pos }))
	return u, g.outTo[pos]
}
