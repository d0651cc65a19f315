// Package cascade estimates the adoption utility σ(S̄) of an assignment
// plan (paper Eq. (1)) by forward Monte-Carlo simulation of the
// topic-aware independent cascade (IC) model (§III-A).
//
// It is the independent check of the reverse-reachable estimators in
// internal/rrset, so it shares no code with them: no traverse walker, no
// graph.PieceLayout, no geometric skip. A call keeps, per piece, the
// out-edges with p > 0 from Graph.OutNeighbors and the piece's per-edge
// probabilities; each world then runs a breadth-first search from every
// piece's seed set that flips every kept out-edge of every activated node
// once, feeds each user's received-piece count through the logistic model,
// and sums the adoption probabilities.
package cascade

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"oipa/internal/bitset"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/xrand"
)

// liveCSR is one piece's out-edges with p > 0, in forward-CSR order: the
// kept out-edges of u are to[off[u]:off[u+1]], with probabilities
// probs[off[u]:off[u+1]].
type liveCSR struct {
	off   []int64
	to    []int32
	probs []float64
}

// keepLive builds the liveCSR of one piece's per-edge probabilities
// (indexed by edge id, as produced by Graph.PieceProbs). Every edge is
// written at the cursor w and only a kept one advances it, so a dropped
// edge is overwritten by the next one without a data-dependent branch.
func keepLive(g *graph.Graph, probs []float64) liveCSR {
	kept := 0
	for _, p := range probs {
		kept += live01(p)
	}
	c := liveCSR{off: make([]int64, g.N()+1), to: make([]int32, kept+1), probs: make([]float64, kept+1)}
	w := 0
	for u := range int32(g.N()) {
		to, edges := g.OutNeighbors(u)
		for i, e := range edges {
			p := probs[e]
			c.to[w], c.probs[w] = to[i], p
			w += live01(p)
		}
		c.off[u+1] = int64(w)
	}
	c.to, c.probs = c.to[:kept], c.probs[:kept]
	return c
}

// live01 is 1 when an edge of probability p can be live, else 0.
func live01(p float64) int {
	if p > 0 {
		return 1
	}
	return 0
}

// world is the per-goroutine scratch of one cascade: the activated stamp
// and the activation queue.
type world struct {
	seen  *bitset.Stamp
	queue []int32
}

func newWorld(n int) *world {
	return &world{seen: bitset.NewStamp(n), queue: make([]int32, 0, 256)}
}

// run performs one cascade of a piece from seeds: every kept out-edge of
// every activated node is live with its probability, one draw of rng (a
// copy, which keeps its state in a register) each in forward-CSR order,
// whether or not its target is already active. It returns the activated
// nodes in activation order, seeds first and duplicate seeds once; the
// slice aliases the world's queue.
func (w *world) run(c *liveCSR, seeds []int32, rng xrand.SplitMix64) []int32 {
	w.seen.Reset()
	queue := w.queue[:0]
	for _, s := range seeds {
		if w.seen.MarkOnce(int(s)) {
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		lo, hi := c.off[u], c.off[u+1]
		to := c.to[lo:hi]
		for i, p := range c.probs[lo:hi] {
			if rng.Float64() < p && w.seen.MarkOnce(int(to[i])) {
				queue = append(queue, to[i])
			}
		}
	}
	w.queue = queue
	return queue
}

// EstimateAdoption estimates the adoption utility σ(S̄) of an assignment
// plan over `runs` Monte-Carlo worlds: in each, every piece j propagates
// independently from its seed set plan[j] under its per-edge
// probabilities pieceProbs[j] (indexed by edge id, as produced by
// Graph.PieceProbs), each user's received-piece count is fed through the
// logistic model, and the per-user adoption probabilities are summed.
//
// Runs are spread over GOMAXPROCS workers, and run r of piece j draws
// from the stream derived from (seed, r·ℓ+j+1), so for a fixed seed the
// worlds do not depend on the parallelism (the float sum's order does).
// Each worker stops between runs once ctx is done, and the call then
// returns ctx's error.
func EstimateAdoption(ctx context.Context, g *graph.Graph, pieceProbs [][]float64, plan [][]int32, model logistic.Model, runs int, seed uint64) (float64, error) {
	if runs <= 0 {
		return 0, fmt.Errorf("cascade: non-positive run count %d", runs)
	}
	l := len(pieceProbs)
	if len(plan) != l {
		return 0, fmt.Errorf("cascade: plan has %d seed sets for %d pieces", len(plan), l)
	}
	if err := model.Validate(); err != nil {
		return 0, err
	}
	live := make([]liveCSR, l)
	for j, probs := range pieceProbs {
		if len(probs) != g.M() {
			return 0, fmt.Errorf("cascade: piece %d: %d probabilities for %d edges", j, len(probs), g.M())
		}
		if len(plan[j]) > 0 {
			live[j] = keepLive(g, probs)
		}
	}
	// The adoption probability for each possible piece count.
	adoptAt := make([]float64, l+1)
	for c := 1; c <= l; c++ {
		adoptAt[c] = model.Adoption(c)
	}
	workers := min(runtime.GOMAXPROCS(0), runs)
	totals := make([]float64, workers)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wd, counts := newWorld(g.N()), bitset.NewCounter(g.N())
			var rng xrand.SplitMix64
			var sum float64
			for r := w; r < runs; r += workers {
				select {
				case <-done:
					return
				default:
				}
				counts.Reset()
				for j := range live {
					if len(plan[j]) == 0 {
						continue
					}
					rng.Reseed(seed, uint64(r)*uint64(l)+uint64(j)+1)
					for _, v := range wd.run(&live[j], plan[j], rng) {
						// Moving a user from count c-1 to c adds
						// adoptAt[c]-adoptAt[c-1].
						c := counts.Add(int(v))
						sum += adoptAt[c] - adoptAt[c-1]
					}
				}
			}
			totals[w] = sum
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("cascade: %w", err)
	}
	var total float64
	for _, t := range totals {
		total += t
	}
	return total / float64(runs), nil
}

// EstimateAdoptionLayouts is EstimateAdoption over piece layouts. It
// rebuilds each piece's per-edge probabilities from the layout's reverse
// arrays: a layout's in-range of v is an in-order subsequence of
// Graph.InNeighbors(v), and a Graph has no parallel edges, so a
// two-pointer merge finds each stored edge's id.
func EstimateAdoptionLayouts(g *graph.Graph, layouts []*graph.PieceLayout, plan [][]int32, model logistic.Model, runs int, seed uint64) (float64, error) {
	pieceProbs := make([][]float64, len(layouts))
	for j, lay := range layouts {
		if lay == nil || lay.Graph() != g {
			return 0, fmt.Errorf("cascade: piece %d layout not built for this graph", j)
		}
		pieceProbs[j] = make([]float64, g.M())
		for v := range int32(g.N()) {
			from, edges := g.InNeighbors(v)
			i := 0
			for pos := lay.InOff[v]; pos < lay.InOff[v+1]; pos, i = pos+1, i+1 {
				for from[i] != lay.InFrom[pos] {
					i++
				}
				pieceProbs[j][edges[i]] = lay.InProbs[pos]
			}
		}
	}
	return EstimateAdoption(context.Background(), g, pieceProbs, plan, model, runs, seed)
}

// ExactAdoptionDeterministic computes σ(S̄) exactly for graphs whose edge
// probabilities are all 0 or 1 (such as the paper's running example):
// reachability is deterministic, so one world is the expectation. It
// returns an error if any edge probability is fractional.
func ExactAdoptionDeterministic(g *graph.Graph, pieceProbs [][]float64, plan [][]int32, model logistic.Model) (float64, error) {
	for j, probs := range pieceProbs {
		for eid, p := range probs {
			if p != 0 && p != 1 {
				return 0, fmt.Errorf("cascade: piece %d edge %d has fractional probability %v", j, eid, p)
			}
		}
	}
	return EstimateAdoption(context.Background(), g, pieceProbs, plan, model, 1, 0)
}
