package core

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"oipa/internal/logistic"
)

// BABOptions tunes the branch-and-bound framework (Algorithm 1).
//
// The search has one configuration beyond these fields. Its bound is the
// concave hull of Eq. (1) (see package logistic). Its termination gap is
// measured on the raw Eq. (6) scale. In that scale every user, covered or
// not, contributes at least Sigmoid(−α). The paper's L and U both carry
// that additive n·Sigmoid(−α) mass, so its "1% error ratio" is a gap on
// this inflated scale. Replicating it keeps the search from enumerating
// the long tail of near-ties that a strict Eq. (1)-scale gap would force.
// The certificate weakens by an additive Tolerance·n·Sigmoid(−α), and
// Tolerance = 0 is unaffected: the scales coincide when the gap must
// vanish. BAB-P completes each bound's candidate plan with lazy greedy
// when Algorithm 3's τ-floor fires before the budget is filled (see
// computeBoundPro).
type BABOptions struct {
	// Epsilon is BAB-P's progressive threshold decay factor; the other
	// solvers ignore it. Larger values trade solution quality for speed per
	// Theorem 3. The paper sweeps 0.1–0.9 and settles on 0.5.
	Epsilon float64
	// Tolerance is the relative gap at which the search stops: the search
	// ends when U <= L·(1+Tolerance) on the raw scale. The paper's
	// experiments use 1%. Zero demands the full (1−1/e) certificate.
	Tolerance float64
	// MaxNodes caps node expansions (0 = unbounded); when hit, the best
	// plan so far is returned with the current global upper bound.
	MaxNodes int
	// Workers, RawGap and FillAfterFloor are ignored. The search is
	// sequential, its gap is always raw and BAB-P always fills. They remain
	// only because the benchmark harness (benchmark/) still sets them, and
	// go when it stops.
	Workers        int
	RawGap         bool
	FillAfterFloor bool
}

// DefaultBABOptions mirrors the paper's experimental configuration: a 1%
// termination gap and, for BAB-P, ε = 0.5.
func DefaultBABOptions() BABOptions {
	return BABOptions{Epsilon: 0.5, Tolerance: 0.01}
}

// Validate reports why Solve refuses to run method with these options: a
// method it does not take, a negative tolerance or node cap, or — for
// BAB-P — an epsilon that is not positive. Every method is held to the
// tolerance and node cap, also those that do not read them.
func (o BABOptions) Validate(method string) error {
	m, ok := lookupMethod(method)
	switch {
	case !ok:
		return fmt.Errorf("core: unknown method %q", method)
	case !(o.Tolerance >= 0):
		return fmt.Errorf("core: tolerance must be non-negative, got %v", o.Tolerance)
	case o.MaxNodes < 0:
		return fmt.Errorf("core: max nodes must be non-negative, got %d", o.MaxNodes)
	case m.progressive && !(o.Epsilon > 0):
		return fmt.Errorf("core: BAB-P requires a positive epsilon, got %v", o.Epsilon)
	}
	return nil
}

// babNode is a heap entry: a partial plan, its exclusion chain, its gain
// frontier, the upper bound of its subtree, and the branching candidate
// chosen by the bound computation (-1 when the subtree cannot be
// extended).
type babNode struct {
	plan   *planNode
	excl   *exclNode
	front  *level
	upper  float64
	branch candidate
	seq    int // FIFO tie-break for determinism
}

type babHeap []*babNode

func (h babHeap) Len() int { return len(h) }
func (h babHeap) Less(i, j int) bool {
	if h[i].upper != h[j].upper {
		return h[i].upper > h[j].upper
	}
	return h[i].seq < h[j].seq
}
func (h babHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *babHeap) Push(x interface{}) { *h = append(*h, x.(*babNode)) }
func (h *babHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return item
}

func greedy(inst *Instance, ev *evaluator) *Result {
	start := time.Now()
	br := ev.bound(nil, nil, inst.Problem.K, 0)
	return &Result{
		Method:  "GREEDY",
		Plan:    ev.materialize(nil, br.picks),
		Utility: ev.utility(),
		Upper:   br.tau,
		Elapsed: time.Since(start),
		Stats:   SolverStats{BoundEvals: 1, TauEvals: ev.tauEvals},
	}
}

// branchAndBound is Algorithm 1. Its bounds are Algorithm 3's with decay
// eps when eps > 0, Algorithm 2's when eps is 0. It stops once ctx is
// done (see Solve).
func branchAndBound(ctx context.Context, inst *Instance, ev *evaluator, opts BABOptions, eps float64, name string) *Result {
	start := time.Now()
	k := inst.Problem.K
	stats := SolverStats{}

	// Root bound: the greedy candidate plan is the initial incumbent. Its
	// utility, like every candidate's, is read off the coverage its bound
	// just built; a child skips the walk when utilityBelow rules it out.
	stats.BoundEvals++
	rootBR := ev.bound(nil, nil, k, eps)
	bestPlan, bestUtil := ev.materialize(nil, rootBR.picks), ev.utility()

	// setAside is the largest bound of any subtree the search left
	// unexpanded: pruned children, nodes that cannot be extended, and
	// whatever is still open when the loop ends. Those subtrees hold every
	// plan the search did not score, so Upper is max(bestUtil, setAside)
	// on every exit path.
	setAside := 0.0

	// Nodes, their chains and the heap come from the evaluator: a warm
	// search allocates almost nothing per node.
	h := &ev.heap
	seq := 0
	push := func(plan *planNode, excl *exclNode, front *level, upper float64, branch candidate) {
		seq++
		n := ev.babNodes.new()
		*n = babNode{plan: plan, excl: excl, front: front, upper: upper, branch: branch, seq: seq}
		heap.Push(h, n)
	}
	push(nil, nil, nil, rootBR.tau, rootBR.branch)

	// gapBase shifts both sides of the termination test onto the raw
	// Eq. (6) scale (see BABOptions).
	gapBase := float64(inst.Index.MRR().N()) * logistic.Sigmoid(-inst.Problem.Model.Alpha)
	prune := func(upper float64) bool {
		return upper+gapBase <= (bestUtil+gapBase)*(1+opts.Tolerance)
	}

	done := ctx.Done()
search:
	for h.Len() > 0 {
		select {
		case <-done:
			// Canceled: return the incumbent with the bound over what is
			// still open.
			break search
		default:
		}
		node := heap.Pop(h).(*babNode)
		if prune(node.upper) || (opts.MaxNodes > 0 && stats.Nodes >= opts.MaxNodes) {
			// Certified (L >= U(1+tol), and the heap holds nothing
			// higher) or out of budget: the popped node stays open.
			setAside = max(setAside, node.upper)
			break
		}
		// A full plan needs no check of its own: its node was bounded with
		// budget 0, which picks nothing and leaves branch −1, and the root's
		// plan is empty while Problem.Validate refuses K ≤ 0.
		if node.branch < 0 {
			setAside = max(setAside, node.upper)
			continue // subtree cannot be extended further
		}
		stats.Nodes++

		// Branch on the candidate the bound computation picked first:
		// include it in the plan, or exclude it from the subtree. Each
		// child's frontier is derived from the node's.
		children := [2]struct {
			plan    *planNode
			excl    *exclNode
			include bool
		}{
			{ev.include(node.plan, node.branch), node.excl, true},
			{node.plan, ev.exclude(node.excl, node.branch), false},
		}
		for _, ch := range children {
			stats.BoundEvals++
			front := ev.prepareNode(ch.plan, ch.excl, node.front, ch.include)
			br := ev.estimate(k-ch.plan.len(), eps)
			if !ev.utilityBelow(bestUtil) {
				if util := ev.utility(); util > bestUtil {
					bestUtil = util
					bestPlan = ev.materialize(ch.plan, br.picks)
				}
			}
			if prune(br.tau) {
				setAside = max(setAside, br.tau)
			} else {
				push(ch.plan, ch.excl, front, br.tau, br.branch)
			}
		}
	}
	if h.Len() > 0 {
		setAside = max(setAside, (*h)[0].upper) // the heap's top is its largest bound
	}

	ev.prepare(nil, nil) // release dirty state (keeps the evaluator reusable)
	stats.TauEvals = ev.tauEvals
	return &Result{
		Method:  name,
		Plan:    bestPlan,
		Utility: bestUtil,
		Upper:   max(bestUtil, setAside),
		Elapsed: time.Since(start),
		Stats:   stats,
	}
}
