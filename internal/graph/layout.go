package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"oipa/internal/topic"
)

// GeoSkipMinDeg is the range length above which a walk takes
// geometric-skip jumps rather than one flip per edge: a jump costs a
// math.Log (~5 flips' worth of RNG), so short scans stay on the flip
// path, and a NodeDist carries its skip caches only for longer ranges.
const GeoSkipMinDeg = 8

// NodeDist summarizes the probabilities of one node's stored edge range
// (in-edges for reverse traversal, out-edges for forward). The three
// fields are packed together so a sampler touching a node pays one cache
// line for all of its dispatch metadata.
//
// The range it describes is the one stored beside it: a walk view (see
// PieceLayout) stores only edges with p > 0, so there a range holding a
// few zero-probability edges and otherwise one shared p is uniform; the
// position-aligned arrays of an explicit layout store every edge, zeros
// included.
type NodeDist struct {
	// Uniform is the probability shared by every edge in the range when
	// they are all equal, the negated largest probability −q when the
	// range is mixed, and 0 when the range is empty or holds no edge
	// with p > 0 (nothing to scan either way). A mixed range with q ≥ 1
	// therefore reads ≤ −1.
	Uniform float64
	// InvLogQ caches 1/ln(1−q) for q = |Uniform| ∈ (0,1) on a range of
	// more than GeoSkipMinDeg edges: a geometric-skip sampler multiplies
	// ln(U) by this value to jump straight to the next candidate edge.
	// 0 elsewhere.
	InvLogQ float64
	// QD caches (1−q)^degree where InvLogQ is cached: the probability
	// that a geometric scan at q finds no candidate in the range.
	// Samplers compare one uniform draw U against it — U ≤ QD is exactly
	// the event ⌊ln U/ln(1−q)⌋ ≥ degree — to dispose of the whole scan
	// without a math.Log call in the common empty case. 0 elsewhere.
	QD float64
}

// PieceLayout is one viral piece's homogeneous influence graph G_j
// (paper §V-A) materialized in reverse traversal order: a reverse CSR
// carrying the activation probability of every in-edge next to its
// source, plus the per-node summaries that enable geometric-skip sampling
// (SUBSIM-style). The RR samplers walk the layout's reverse walk view —
//
//	walker.RunFrom(off, from, dist, probs, root, rng) // off, from, dist, probs := lay.Reverse()
//
// — and read probabilities sequentially instead of through a per-edge-id
// indirection. The walk view holds only the in-edges with p > 0, and its
// NodeDist describes exactly those. A layout has no forward side: the
// forward cascade simulator (internal/cascade) reads the graph's own
// out-edges and never a layout.
//
// There are two constructors:
//
//   - Graph.PieceLayout(t) builds the layout of a topic distribution. The
//     reverse CSR is pruned: an edge whose topics do not meet the piece's
//     has p(t, e) = 0, is not in G_j, and is not stored. Its own
//     InOff/InFrom/InProbs/InDist are its reverse walk view.
//   - Graph.Layout(probs) builds the layout of an explicit per-edge
//     probability vector. Its exported arrays are not pruned: InOff/InFrom
//     alias the graph's reverse CSR, so InProbs and InDist are
//     position-aligned with Graph.InCSR, and OutProbs/OutDist with the
//     graph's forward CSR; tests and harnesses that index a layout by
//     graph CSR position use this one. When probs holds a zero, the
//     reverse walk view is the pruned copy of the reverse arrays, built
//     once on the first walk; otherwise the arrays are the view.
//
// The reverse walk views of the two constructors over the same
// probabilities are equal array for array, so every walk draws the same
// sets from either.
//
// Layouts are immutable after construction (the lazily built view is
// guarded) and safe for concurrent use.
type PieceLayout struct {
	g *Graph

	// InOff/InFrom are the layout's reverse CSR: the stored in-neighbors
	// of v are InFrom[InOff[v]:InOff[v+1]].
	InOff  []int64
	InFrom []int32

	// InProbs[pos] is the activation probability of the in-edge at
	// position pos of InFrom.
	InProbs []float64

	// InDist[v] describes v's stored in-edge range.
	InDist []NodeDist

	// OutProbs/OutDist are the forward analogue, in the graph's
	// forward-CSR position order (Graph.OutNeighbors, node by node). Only
	// explicit-probability layouts fill them; no walk reads them.
	OutProbs []float64
	OutDist  []NodeDist

	// rev is the reverse walk view built on first use on an explicit
	// layout whose probabilities hold a zero (nil otherwise: the exported
	// reverse arrays are the view). A pointer, so copies of the layout
	// value share one build.
	rev *lazyView
}

// walkView is a layout as a walk reads it, plus the bytes it owns beyond
// the arrays it aliases.
type walkView struct {
	off   []int64
	adj   []int32
	dist  []NodeDist
	probs []float64
	bytes int64
}

// lazyView is a walk view built exactly once, however many goroutines
// ask.
type lazyView struct {
	mu sync.Mutex
	v  *walkView
}

// get returns the view, building it with build on the first call.
func (z *lazyView) get(build func() walkView) walkView {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.v == nil {
		v := build()
		z.v = &v
	}
	return *z.v
}

// bytes is the built view's own bytes, 0 before the build (or on nil).
func (z *lazyView) bytes() int64 {
	if z == nil {
		return 0
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.v == nil {
		return 0
	}
	return z.v.bytes
}

// Graph returns the graph the layout was built for.
func (l *PieceLayout) Graph() *Graph { return l.g }

// Reverse returns the reverse walk view in Walker.RunFrom argument order: the
// CSR of the in-edges with p > 0, their per-node summaries and their
// probabilities. On a topic-built layout these are its own reverse
// arrays; on an explicit one whose probabilities hold a zero, the first
// call builds the pruned copy (exactly once, however many goroutines
// ask).
func (l *PieceLayout) Reverse() (off []int64, from []int32, dist []NodeDist, probs []float64) {
	if l.rev == nil {
		return l.InOff, l.InFrom, l.InDist, l.InProbs
	}
	v := l.rev.get(func() walkView { return layView(l.InOff, l.InFrom, nil, l.InProbs, true) })
	return v.off, v.adj, v.dist, v.probs
}

// MemUsage returns the bytes the layout holds beyond the graph itself:
// the arrays it owns (an explicit-probability layout aliases the graph's
// InOff/InFrom and is not charged for them) plus the walk view built so
// far.
func (l *PieceLayout) MemUsage() int64 {
	b := int64(cap(l.InProbs))*8 + int64(cap(l.InDist))*24 + int64(cap(l.OutProbs))*8 + int64(cap(l.OutDist))*24
	if &l.InOff[0] != &l.g.inOff[0] {
		b += int64(cap(l.InOff))*8 + int64(cap(l.InFrom))*4
	}
	return b + l.rev.bytes()
}

// InCSR exposes the reverse-CSR arrays: the in-neighbors of v are
// from[off[v]:off[v+1]]. The slices alias internal storage and must not
// be modified. Only an explicit-probability layout's exported arrays are
// position-aligned with them; walk any layout through Reverse instead.
func (g *Graph) InCSR() (off []int64, from []int32) { return g.inOff, g.inFrom }

// Layout builds the PieceLayout of an explicit per-edge probability
// vector (indexed by edge id, as produced by PieceProbs). Its exported
// arrays are not pruned: the reverse ones are position-aligned with InCSR
// and the forward ones with the forward CSR. Cost is O(n + m).
func (g *Graph) Layout(probs []float64) (*PieceLayout, error) {
	if len(probs) != g.M() {
		return nil, fmt.Errorf("graph: %d probabilities for %d edges", len(probs), g.M())
	}
	in := layView(g.inOff, g.inFrom, g.inEdge, probs, false)
	out := layView(g.outOff, g.outTo, g.outEdge, probs, false)
	l := &PieceLayout{g: g, InOff: in.off, InFrom: in.adj, InProbs: in.probs, InDist: in.dist, OutProbs: out.probs, OutDist: out.dist}
	if slices.ContainsFunc(probs, dead) {
		l.rev = &lazyView{}
	}
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
	return g.buildLayout(t.Dense(g.Z())), nil
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

// buildLayout is the topic constructor's builder. It streams every
// node's in-range once, taking the probability of the in-edge at graph
// position pos as PieceProbs does (denseDot, clamped), and keeps it in
// the layout's own pruned CSR only when positive. InDist[v] summarizes the kept edges, so the layout
// equals the walk view of the explicit layout of PieceProbs(t).
func (g *Graph) buildLayout(dense []float64) *PieceLayout {
	n, m := g.N(), g.M()
	l := &PieceLayout{g: g, InOff: make([]int64, n+1), InFrom: make([]int32, m), InProbs: make([]float64, m), InDist: make([]NodeDist, n)}
	// w is the write cursor into the layout's arrays. Every edge is
	// written at w; only a kept edge advances it, so a pruned edge is
	// overwritten by the next one without a data-dependent branch.
	w := int64(0)
	for v := 0; v < n; v++ {
		start := w
		for pos := g.inOff[v]; pos < g.inOff[v+1]; pos++ {
			p := clamp01(g.denseDot(dense, pos))
			keep := int64(1)
			if dead(p) {
				keep = 0
			}
			l.InFrom[w] = g.inFrom[pos]
			l.InProbs[w] = p
			w += keep
		}
		l.InOff[v+1] = w
		l.InDist[v] = summarize(l.InProbs[start:w])
	}
	if w < int64(m) {
		// Exact fit: a cached layout lives long, its m-sized scratch
		// should not.
		l.InFrom = append(make([]int32, 0, w), l.InFrom[:w]...)
		l.InProbs = append(make([]float64, 0, w), l.InProbs[:w]...)
	}
	return l
}

// layView lays one CSR direction (off, adj) out for walking: the
// probability of the edge at position pos is byEdge[edge[pos]], or
// byEdge[pos] when edge is nil. With prune, edges with p ≤ 0 are dropped,
// and the CSR is copied only when one is; without, every edge is kept in
// position. dist[v] summarizes v's kept range.
func layView(off []int64, adj []int32, edge []int32, byEdge []float64, prune bool) walkView {
	n := len(off) - 1
	kept := len(byEdge)
	if prune {
		for _, p := range byEdge {
			if dead(p) {
				kept--
			}
		}
	}
	v := walkView{off: off, adj: adj, dist: make([]NodeDist, n), probs: make([]float64, kept)}
	v.bytes = int64(kept)*8 + int64(n)*24
	if kept == len(byEdge) {
		if edge == nil {
			copy(v.probs, byEdge)
		} else {
			for pos, e := range edge {
				v.probs[pos] = byEdge[e]
			}
		}
		for u := range v.dist {
			v.dist[u] = summarize(v.probs[off[u]:off[u+1]])
		}
		return v
	}
	v.off, v.adj = make([]int64, n+1), make([]int32, kept)
	v.bytes += int64(n+1)*8 + int64(kept)*4
	w := int64(0)
	for u := 0; u < n; u++ {
		start := w
		for pos := off[u]; pos < off[u+1]; pos++ {
			p := byEdge[pos]
			if edge != nil {
				p = byEdge[edge[pos]]
			}
			if !dead(p) {
				v.adj[w], v.probs[w] = adj[pos], p
				w++
			}
		}
		v.off[u+1] = w
		v.dist[u] = summarize(v.probs[start:w])
	}
	return v
}

// dead reports whether an edge of probability p can never be live.
func dead(p float64) bool { return p <= 0 }

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

// summarize returns the NodeDist of one stored edge range: uniform when
// every probability is equal, otherwise mixed at its largest probability
// q; a range with no positive probability is dead. The geometric-skip
// caches exist for q ∈ (0,1) on ranges longer than GeoSkipMinDeg only —
// no walk reads them on a shorter one, and most ranges of a pruned
// layout are short.
func summarize(probs []float64) NodeDist {
	if len(probs) == 0 {
		return NodeDist{}
	}
	lo, q := probs[0], probs[0]
	for _, p := range probs[1:] {
		if p < lo {
			lo = p
		}
		if p > q {
			q = p
		}
	}
	if q <= 0 {
		return NodeDist{}
	}
	d := NodeDist{Uniform: q}
	if lo != q {
		d.Uniform = -q
	}
	if q < 1 && len(probs) > GeoSkipMinDeg {
		d.InvLogQ = 1 / math.Log(1-q)
		d.QD = math.Pow(1-q, float64(len(probs)))
	}
	return d
}
