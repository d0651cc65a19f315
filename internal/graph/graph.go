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
package graph

import (
	"errors"
	"fmt"
	"sort"

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

	// probs[eid] is the topic-wise influence vector of edge eid.
	probs []topic.Vector

	// The same vectors flattened in reverse-CSR position order, for the
	// one streaming pass that builds a piece layout: the in-edge at
	// position pos carries topics topicIdx[topicOff[pos]:topicOff[pos+1]]
	// (ascending) with values topicVal[...].
	topicOff []int64
	topicIdx []int32
	topicVal []float64
}

// N returns the number of vertices.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.probs) }

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
// returned vector aliases internal storage.
func (g *Graph) EdgeProb(eid int32) topic.Vector { return g.probs[eid] }

// PieceProbs computes, for every edge, the activation probability of a
// viral piece with topic distribution t: p(t, e) = t · p(e), clamped into
// [0, 1]. This materializes the per-piece homogeneous influence graph the
// paper constructs for each t_j (§V-A) and is computed once per piece.
func (g *Graph) PieceProbs(t topic.Vector) []float64 {
	out := make([]float64, len(g.probs))
	for eid, p := range g.probs {
		out[eid] = clamp01(t.Dot(p))
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
	if len(g.probs) == 0 {
		return 0
	}
	total := 0
	for _, p := range g.probs {
		total += p.NNZ()
	}
	return float64(total) / float64(len(g.probs))
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

// Validate re-checks structural invariants; primarily used after
// deserialization.
func (g *Graph) Validate() error {
	if int64(len(g.outTo)) != int64(len(g.probs)) || int64(len(g.inFrom)) != int64(len(g.probs)) {
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
	for eid, p := range g.probs {
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
type Builder struct {
	n     int
	z     int
	from  []int32
	to    []int32
	probs []topic.Vector
}

// NewBuilder returns a builder for a graph with n vertices over z topics.
func NewBuilder(n, z int) *Builder {
	return &Builder{n: n, z: z}
}

// AddEdge appends a directed edge u -> v with topic-wise influence vector
// p. The vector is not copied; callers must not mutate it afterwards.
func (b *Builder) AddEdge(u, v int32, p topic.Vector) error {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", u, v, b.n)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("graph: edge (%d,%d): %w", u, v, err)
	}
	if nnz := p.NNZ(); nnz > 0 && int(p.Idx[nnz-1]) >= b.z {
		return fmt.Errorf("graph: edge (%d,%d) references topic %d outside [0,%d)", u, v, p.Idx[nnz-1], b.z)
	}
	for _, val := range p.Val {
		if val > 1 {
			return fmt.Errorf("graph: edge (%d,%d) has probability %v > 1", u, v, val)
		}
	}
	b.from = append(b.from, u)
	b.to = append(b.to, v)
	b.probs = append(b.probs, p)
	return nil
}

// M returns the number of edges added so far.
func (b *Builder) M() int { return len(b.from) }

// Build constructs the immutable Graph. Edge identifiers are assigned in
// (u, v) sorted order, making the result independent of insertion order.
func (b *Builder) Build() (*Graph, error) {
	m := len(b.from)
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if b.from[a] != b.from[c] {
			return b.from[a] < b.from[c]
		}
		return b.to[a] < b.to[c]
	})
	for i := 1; i < m; i++ {
		a, c := order[i-1], order[i]
		if b.from[a] == b.from[c] && b.to[a] == b.to[c] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", b.from[a], b.to[a])
		}
	}

	g := &Graph{
		n:       int32(b.n),
		z:       int32(b.z),
		outOff:  make([]int64, b.n+1),
		outTo:   make([]int32, m),
		outEdge: make([]int32, m),
		inOff:   make([]int64, b.n+1),
		inFrom:  make([]int32, m),
		inEdge:  make([]int32, m),
		probs:   make([]topic.Vector, m),
	}

	// Forward CSR directly from the sorted order.
	for u := range g.outOff {
		g.outOff[u] = 0
	}
	for _, idx := range order {
		g.outOff[b.from[idx]+1]++
	}
	for u := 0; u < b.n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}
	for eid, idx := range order {
		g.probs[eid] = b.probs[idx]
	}
	cursor := make([]int64, b.n)
	for eid, idx := range order {
		u := b.from[idx]
		pos := g.outOff[u] + cursor[u]
		cursor[u]++
		g.outTo[pos] = b.to[idx]
		g.outEdge[pos] = int32(eid)
	}

	// Reverse CSR by counting sort over destinations.
	for _, idx := range order {
		g.inOff[b.to[idx]+1]++
	}
	for v := 0; v < b.n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	for i := range cursor {
		cursor[i] = 0
	}
	for eid, idx := range order {
		v := b.to[idx]
		pos := g.inOff[v] + cursor[v]
		cursor[v]++
		g.inFrom[pos] = b.from[idx]
		g.inEdge[pos] = int32(eid)
	}

	// Flatten the topic vectors in reverse-CSR position order.
	entries := 0
	for _, p := range g.probs {
		entries += p.NNZ()
	}
	g.topicOff = make([]int64, m+1)
	g.topicIdx = make([]int32, 0, entries)
	g.topicVal = make([]float64, 0, entries)
	for pos, eid := range g.inEdge {
		p := g.probs[eid]
		g.topicIdx = append(g.topicIdx, p.Idx...)
		g.topicVal = append(g.topicVal, p.Val...)
		g.topicOff[pos+1] = int64(len(g.topicIdx))
	}
	return g, nil
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
