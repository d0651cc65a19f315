package traverse

import (
	"math"

	"oipa/internal/bitset"
	"oipa/internal/graph"
	"oipa/internal/xrand"
)

// GeoSkipMinDeg is the range length above which geometric-skip jumps
// beat per-edge flips (graph.GeoSkipMinDeg, which also bounds the ranges
// whose NodeDist carries the skip caches).
const GeoSkipMinDeg = graph.GeoSkipMinDeg

// GeoSkipMaxQ is the largest probability q below which a mixed range
// longer than GeoSkipMinDeg is walked by geometric jumps at q plus
// thinning rather than by one flip per edge. A range of d edges yields
// d·q candidates, each costing a log jump and a thinning draw, against d
// flips; measured per range (BENCH.md), the two break even near q = 1/16
// on 10–36 edges and near 1/10 on 350.
const GeoSkipMaxQ = 1.0 / 16

// Walker holds the per-goroutine scratch of a randomized BFS: the
// visited stamp and the frontier queue. One Walker serves many walks;
// it is not safe for concurrent use — create one per goroutine.
type Walker struct {
	visited *bitset.Stamp
	queue   []int32
	scratch []int32
}

// NewWalker returns a walker for graphs of n nodes.
func NewWalker(n int) *Walker {
	return &Walker{visited: bitset.NewStamp(n), queue: make([]int32, 0, 256), scratch: make([]int32, 0, 64)}
}

// expand draws the live edges of node v in the CSR (off, adj) under the
// layout arrays (dist, probs) and appends the corresponding endpoints to
// buf, which it returns. It is the per-node core of every walk in this
// package — the single copy of the geometric-skip dispatch shared by the
// single-graph Walker and the layer-generic MultiWalker.
//
// The RNG draw sequence depends only on (off, dist, probs, v), never on
// any visited state, so a caller may filter the returned endpoints
// through its own visited structure without perturbing the stream.
//
// Per-node dispatch on the range's NodeDist: a uniform range draws the
// index of its next live edge with a geometric jump (ties the number of
// RNG draws to the number of live edges, not the degree); a mixed range
// longer than GeoSkipMinDeg whose largest probability q is below
// GeoSkipMaxQ jumps the same way at q and thins each candidate to its own
// p; any other mixed range flips one coin per edge, reading probabilities
// sequentially from the layout; p >= 1 ranges take every edge with zero
// draws.
func expand(off []int64, adj []int32, dist []graph.NodeDist, probs []float64, v int32, rng *xrand.SplitMix64, buf []int32) []int32 {
	lo, hi := off[v], off[v+1]
	if lo == hi {
		return buf
	}
	d := &dist[v]
	switch p := d.Uniform; {
	case p == 0:
		// Every edge in the range is dead.
	case p >= 1:
		for pos := lo; pos < hi; pos++ {
			buf = append(buf, adj[pos])
		}
	case p > 0 && hi-lo <= GeoSkipMinDeg:
		// Short scan: one flip per edge beats a log call, and the
		// uniform probability needs no per-edge loads.
		for pos := lo; pos < hi; pos++ {
			if rng.Float64() >= p {
				continue
			}
			buf = append(buf, adj[pos])
		}
	case p > 0 || (-p < GeoSkipMaxQ && hi-lo > GeoSkipMinDeg):
		// Geometric skip at q = |p|: ⌊ln(U)/ln(1-q)⌋ is the number of
		// positions before the next candidate, so every position is a
		// candidate with probability q. The first draw doubles as the
		// all-dead test — U ≤ QD = (1-q)^deg is that exact event — so
		// the common empty scan costs one draw and no log. In a uniform
		// range every candidate is live. In a mixed one (thin) a
		// candidate whose p equals q is live with no further draw, and
		// any other is live iff one more draw U satisfies U·q < p: live
		// with probability q·p/q = p, independently per edge. The
		// thinning draw precedes the next jump's.
		q, thin := p, p < 0
		if thin {
			q = -p
		}
		u0 := rng.Float64()
		if u0 <= d.QD {
			return buf
		}
		invLogQ := d.InvLogQ
		pos := lo + int64(math.Log(u0)*invLogQ)
		if pos >= hi {
			// u0 > QD guarantees pos < hi in exact arithmetic, but QD
			// (math.Pow) and the log product round independently; clamp
			// rather than read the next node's CSR range.
			return buf
		}
		for {
			if !thin || probs[pos] >= q || rng.Float64()*q < probs[pos] {
				buf = append(buf, adj[pos])
			}
			pos++
			if pos >= hi {
				break
			}
			jump := math.Log(rng.Float64()) * invLogQ
			if jump >= float64(hi-pos) {
				break
			}
			pos += int64(jump)
		}
	default: // mixed probabilities: one flip per live-candidate edge
		for pos := lo; pos < hi; pos++ {
			q := probs[pos]
			if q <= 0 {
				continue
			}
			if q < 1 && rng.Float64() >= q {
				continue
			}
			buf = append(buf, adj[pos])
		}
	}
	return buf
}

// RunFrom performs one randomized BFS from root over the CSR direction
// given by (off, adj), drawing edge liveness under the layout arrays
// (dist, probs) for that same direction — a layout's reverse walk view
// (PieceLayout.Reverse) for RR sampling.
//
// It returns the visited nodes in visit order (root first). The slice
// aliases the walker's internal queue and is only valid until the next
// RunFrom.
//
// Each visited node's live edges are drawn by expand; since the draw
// sequence is independent of the visited state, the drawn endpoints are
// filtered through the stamp afterwards.
func (w *Walker) RunFrom(off []int64, adj []int32, dist []graph.NodeDist, probs []float64, root int32, rng *xrand.SplitMix64) []int32 {
	w.visited.Reset()
	w.visited.Mark(int(root))
	w.queue = append(w.queue[:0], root)
	for head := 0; head < len(w.queue); head++ {
		v := w.queue[head]
		w.scratch = expand(off, adj, dist, probs, v, rng, w.scratch[:0])
		for _, u := range w.scratch {
			if w.visited.MarkOnce(int(u)) {
				w.queue = append(w.queue, u)
			}
		}
	}
	return w.queue
}
