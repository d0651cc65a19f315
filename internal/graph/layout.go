package graph

import (
	"fmt"
	"math"
	"sync"

	"oipa/internal/topic"
)

// NodeDist summarizes the probability distribution across one node's CSR
// edge range (in-edges for reverse traversal, out-edges for forward). The
// three fields are packed together so a sampler touching a node pays one
// cache line for all of its dispatch metadata.
type NodeDist struct {
	// Uniform is the probability shared by every edge in the range when
	// they are all equal, -1 when the range is mixed, and 0 when the
	// range is empty (nothing to scan either way).
	Uniform float64
	// InvLogQ caches 1/ln(1-Uniform) for Uniform ∈ (0,1): a
	// geometric-skip sampler multiplies ln(U) by this value to jump
	// straight to the next live edge. 0 elsewhere.
	InvLogQ float64
	// QD caches (1-Uniform)^degree for Uniform ∈ (0,1): the probability
	// that every edge in the range is dead. Samplers compare one uniform
	// draw U against it — U ≤ QD is exactly the event
	// ⌊ln U/ln(1-Uniform)⌋ ≥ degree — to dispose of the whole scan
	// without a math.Log call in the common no-live-edge case. 0
	// elsewhere.
	QD float64
}

// PieceLayout is one viral piece's homogeneous influence graph G_j
// (paper §V-A) materialized in traversal order: a reverse CSR carrying
// the activation probability of every in-edge next to its source, plus
// the per-node uniformity metadata that enables geometric-skip sampling
// (SUBSIM-style). Samplers walk the layout's own arrays —
//
//	walker.RunFrom(lay.InOff, lay.InFrom, lay.InDist, lay.InProbs, root, rng)
//
// — and read probabilities sequentially instead of through a per-edge-id
// indirection.
//
// There are two constructors, sharing one builder:
//
//   - Graph.PieceLayout(t) builds the layout of a topic distribution. The
//     reverse CSR is pruned: an edge whose topics do not meet the piece's
//     has p(t, e) = 0, is not in G_j, and is not stored. InDist is still
//     computed over each node's full in-range of G, so every dispatch
//     decision is the one the unpruned arrays would take; and since a
//     zero-probability edge never drew a random number, a walk visits the
//     same nodes in the same order under either representation. The
//     forward side is built on first use (Forward).
//   - Graph.Layout(probs) builds the layout of an explicit per-edge
//     probability vector. Nothing is pruned: InOff/InFrom alias the
//     graph's reverse CSR, so InProbs and InDist are position-aligned with
//     Graph.InCSR, and OutProbs/OutDist are filled eagerly. Tests and
//     harnesses that index a layout by graph CSR position use this one.
//
// Layouts are immutable after construction (the lazily built forward side
// is guarded) and safe for concurrent use.
type PieceLayout struct {
	g *Graph

	// InOff/InFrom are the layout's reverse CSR: the live-candidate
	// in-neighbors of v are InFrom[InOff[v]:InOff[v+1]].
	InOff  []int64
	InFrom []int32

	// InProbs[pos] is the activation probability of the in-edge at
	// position pos of InFrom.
	InProbs []float64

	// InDist[v] describes v's in-edge range in G (zero-probability edges
	// included); the RR samplers dispatch on it per visited node.
	InDist []NodeDist

	// OutProbs/OutDist are the forward analogue, in the position order of
	// Graph.OutCSR. Only explicit-probability layouts fill them at
	// construction; on a topic-built layout they stay nil and Forward
	// builds the forward side on demand.
	OutProbs []float64
	OutDist  []NodeDist

	// fwd is the lazily built forward side of a topic-built layout (nil
	// on explicit-probability layouts). A pointer, so copies of the
	// layout value share one build.
	fwd *forwardSide
}

// forwardSide holds what a topic-built layout needs to build its forward
// arrays the first time a simulator asks: the piece's topic vector, and
// the arrays once built.
type forwardSide struct {
	t topic.Vector

	mu    sync.Mutex
	probs []float64
	dist  []NodeDist
}

// Graph returns the graph the layout was built for.
func (l *PieceLayout) Graph() *Graph { return l.g }

// Forward returns the forward-direction arrays in Walker.Run argument
// order: the graph's forward CSR and the layout's per-out-edge
// probabilities and per-node metadata. On a topic-built layout the first
// call builds them (exactly once, however many goroutines ask); the
// solve and estimate paths never call it, so cached layouts carry no
// forward arrays until /v1/simulate needs them.
func (l *PieceLayout) Forward() (off []int64, to []int32, dist []NodeDist, probs []float64) {
	off, to = l.g.OutCSR()
	f := l.fwd
	if f == nil {
		return off, to, l.OutDist, l.OutProbs
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dist == nil {
		f.probs, f.dist = l.g.forward(l.g.PieceProbs(f.t))
	}
	return off, to, f.dist, f.probs
}

// MemUsage returns the bytes the layout holds beyond the graph itself:
// the reverse arrays it owns (an explicit-probability layout aliases the
// graph's InOff/InFrom and is not charged for them) plus the forward
// arrays if they have been built.
func (l *PieceLayout) MemUsage() int64 {
	b := int64(cap(l.InProbs))*8 + int64(cap(l.InDist))*24
	if f := l.fwd; f != nil {
		b += int64(cap(l.InOff))*8 + int64(cap(l.InFrom))*4
		f.mu.Lock()
		b += int64(cap(f.probs))*8 + int64(cap(f.dist))*24
		f.mu.Unlock()
	} else {
		b += int64(cap(l.OutProbs))*8 + int64(cap(l.OutDist))*24
	}
	return b
}

// InCSR exposes the reverse-CSR arrays: the in-neighbors of v are
// from[off[v]:off[v+1]]. The slices alias internal storage and must not
// be modified. Only an explicit-probability layout (Graph.Layout) is
// position-aligned with them; walk any layout through its own
// InOff/InFrom instead.
func (g *Graph) InCSR() (off []int64, from []int32) { return g.inOff, g.inFrom }

// OutCSR exposes the forward-CSR arrays: the out-neighbors of u are
// to[off[u]:off[u+1]]. Same aliasing caveat as InCSR.
func (g *Graph) OutCSR() (off []int64, to []int32) { return g.outOff, g.outTo }

// Layout builds the PieceLayout of an explicit per-edge probability
// vector (indexed by edge id, as produced by PieceProbs). Nothing is
// pruned: the layout's reverse arrays are position-aligned with InCSR and
// the forward arrays with OutCSR. Cost is O(n + m).
func (g *Graph) Layout(probs []float64) (*PieceLayout, error) {
	if len(probs) != g.M() {
		return nil, fmt.Errorf("graph: %d probabilities for %d edges", len(probs), g.M())
	}
	l := g.buildLayout(probs, nil)
	l.OutProbs, l.OutDist = g.forward(probs)
	return l, nil
}

// PieceLayout builds the layout of a piece with topic distribution t:
// the pruned reverse CSR of the piece's influence graph, straight from
// the topic vector in one pass over the graph's flat edge-topic entries
// (no per-edge probability vector is materialized). Cost is O(n + m)
// time and O(n + live edges) memory.
func (g *Graph) PieceLayout(t topic.Vector) (*PieceLayout, error) {
	if err := g.checkPiece(t); err != nil {
		return nil, err
	}
	return g.pieceLayout(t.Clone()), nil
}

// checkPiece vets a piece's topic vector against the graph's topic space.
func (g *Graph) checkPiece(t topic.Vector) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("graph: piece layout: %w", err)
	}
	if nnz := t.NNZ(); nnz > 0 && int(t.Idx[nnz-1]) >= g.Z() {
		return fmt.Errorf("graph: piece layout: topic index %d outside [0,%d)", t.Idx[nnz-1], g.Z())
	}
	return nil
}

// pieceLayout is PieceLayout over a vector checkPiece has accepted; the
// layout keeps t, which the caller must not modify afterwards.
func (g *Graph) pieceLayout(t topic.Vector) *PieceLayout {
	l := g.buildLayout(nil, t.Dense(g.Z()))
	l.fwd = &forwardSide{t: t}
	return l
}

// buildLayout is the one builder behind both constructors. It streams
// every node's in-range once, taking the probability of the in-edge at
// graph position pos from exactly one of two sources:
//
//   - probs (explicit constructor): probs[inEdge[pos]], stored at pos —
//     the layout aliases the graph's reverse CSR;
//   - dense (topic constructor): the piece's dense topic weights, dotted
//     with the edge's flat topic entries in ascending index order — bit
//     for bit Vector.Dot's merge, since a topic absent from the piece
//     contributes +0 — clamped like PieceProbs, and kept in the layout's
//     own pruned CSR only when positive.
//
// Either way InDist[v] summarizes v's full in-range, so the pruned and
// unpruned representations dispatch identically.
func (g *Graph) buildLayout(probs, dense []float64) *PieceLayout {
	n, m := g.N(), g.M()
	l := &PieceLayout{g: g, InOff: g.inOff, InFrom: g.inFrom, InProbs: make([]float64, m), InDist: make([]NodeDist, n)}
	prune := dense != nil
	if prune {
		l.InOff, l.InFrom = make([]int64, n+1), make([]int32, m)
	}
	tOff, tIdx, tVal := g.topicOff, g.topicIdx, g.topicVal
	// w is the write cursor into the layout's arrays. Every edge is
	// written at w; only a kept edge advances it, so a pruned edge is
	// overwritten by the next one without a data-dependent branch.
	w := int64(0)
	for v := 0; v < n; v++ {
		lo, hi := g.inOff[v], g.inOff[v+1]
		uniform := 0.0
		for pos := lo; pos < hi; pos++ {
			var p float64
			keep := int64(1)
			if prune {
				for k := tOff[pos]; k < tOff[pos+1]; k++ {
					p += dense[tIdx[k]] * tVal[k]
				}
				p = clamp01(p)
				l.InFrom[w] = g.inFrom[pos]
				if p <= 0 { // the edges expand skips without a draw
					keep = 0
				}
			} else {
				p = probs[g.inEdge[pos]]
			}
			uniform = mergeUniform(uniform, p, pos == lo)
			l.InProbs[w] = p
			w += keep
		}
		if prune {
			l.InOff[v+1] = w
		}
		l.InDist[v] = newNodeDist(uniform, hi-lo)
	}
	if w < int64(m) {
		// Exact fit: a cached layout lives long, its m-sized scratch
		// should not.
		l.InFrom = append(make([]int32, 0, w), l.InFrom[:w]...)
		l.InProbs = append(make([]float64, 0, w), l.InProbs[:w]...)
	}
	return l
}

// forward gathers per-edge-id probabilities into forward-CSR position
// order (which coincides with edge-id order for graphs built by Builder,
// but is constructed independently of that invariant) and summarizes
// every node's out-range.
func (g *Graph) forward(byEdge []float64) (probs []float64, dist []NodeDist) {
	probs = make([]float64, len(byEdge))
	for pos, eid := range g.outEdge {
		probs[pos] = byEdge[eid]
	}
	dist = make([]NodeDist, g.N())
	for u := range dist {
		lo, hi := g.outOff[u], g.outOff[u+1]
		uniform := 0.0
		for pos := lo; pos < hi && uniform != -1; pos++ {
			uniform = mergeUniform(uniform, probs[pos], pos == lo)
		}
		dist[u] = newNodeDist(uniform, hi-lo)
	}
	return probs, dist
}

// clamp01 clamps an activation probability into [0, 1].
func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// mergeUniform folds one more edge probability into a range's running
// Uniform value: the first edge sets it, any later edge that differs
// makes the range mixed (-1) for good.
func mergeUniform(uniform, p float64, first bool) float64 {
	if first {
		return p
	}
	if p != uniform {
		return -1
	}
	return uniform
}

// newNodeDist completes a range's NodeDist from its Uniform value and
// degree: the geometric-skip caches exist for uniform p ∈ (0,1) only.
func newNodeDist(uniform float64, degree int64) NodeDist {
	d := NodeDist{Uniform: uniform}
	if uniform > 0 && uniform < 1 {
		d.InvLogQ = 1 / math.Log(1-uniform)
		d.QD = math.Pow(1-uniform, float64(degree))
	}
	return d
}
