package core

import (
	"container/heap"
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
	// Stop, when non-nil, asks the search to return early: as soon as the
	// channel is closed (or receives), the best incumbent found so far is
	// returned together with the residual global upper bound, exactly as
	// when MaxNodes is hit. It is checked once per node expansion, so a
	// solve already inside a bound computation finishes that computation
	// first. This is the reentrant cancellation hook the query service
	// wires to HTTP request deadlines.
	Stop <-chan struct{}

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

// Validate reports options no solver accepts: a negative tolerance or
// node cap, and — when progressive, as for BAB-P — an epsilon that is not
// positive.
func (o BABOptions) Validate(progressive bool) error {
	switch {
	case !(o.Tolerance >= 0):
		return fmt.Errorf("core: tolerance must be non-negative, got %v", o.Tolerance)
	case o.MaxNodes < 0:
		return fmt.Errorf("core: max nodes must be non-negative, got %d", o.MaxNodes)
	case progressive && !(o.Epsilon > 0):
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

// SolveBAB runs the plain branch-and-bound framework: Algorithm 1 with
// Algorithm 2 as the bound estimator. It returns a plan whose
// MRR-estimated utility is within (1−1/e)/(1+Tolerance) of the
// MRR-estimated optimum (Theorem 2).
func SolveBAB(inst *Instance, opts BABOptions) (*Result, error) {
	return solve(inst, nil, opts, solveBAB)
}

// SolveBABP runs branch-and-bound with the progressive upper-bound
// estimator (Algorithm 3), achieving (1−1/e−ε)/(1+Tolerance) with far
// fewer τ evaluations (Theorems 3 and 4).
func SolveBABP(inst *Instance, opts BABOptions) (*Result, error) {
	return solve(inst, nil, opts, solveBABP)
}

// SolveGreedy runs a single bound computation from the empty plan and
// returns its candidate solution — the root lower bound of BAB. It has no
// approximation guarantee for OIPA (the objective is not submodular) but
// is a strong, cheap heuristic and the natural ablation for how much the
// search itself adds. It reads no option, but refuses the options the
// searches refuse.
func SolveGreedy(inst *Instance, opts BABOptions) (*Result, error) {
	return solve(inst, nil, opts, solveGreedy)
}

// solver names what a solve runs on its evaluator.
type solver int

const (
	solveGreedy solver = iota // one Algorithm 2 bound from the empty plan
	solveBAB                  // Algorithm 1 over Algorithm 2
	solveBABP                 // Algorithm 1 over Algorithm 3
)

// solve validates opts and runs s on an evaluator from pool, or on a fresh
// one when pool is nil.
func solve(inst *Instance, pool *EvaluatorPool, opts BABOptions, s solver) (*Result, error) {
	if err := opts.Validate(s == solveBABP); err != nil {
		return nil, err
	}
	var ev *evaluator
	if pool == nil {
		ev = newEvaluator(inst)
	} else {
		var err error
		if ev, err = pool.acquire(inst); err != nil {
			return nil, err
		}
		defer pool.release(ev)
	}
	switch s {
	case solveGreedy:
		return greedy(inst, ev), nil
	case solveBAB:
		return branchAndBound(inst, ev, opts, 0, "BAB"), nil
	default:
		return branchAndBound(inst, ev, opts, opts.Epsilon, "BAB-P"), nil
	}
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
// eps when eps > 0, Algorithm 2's when eps is 0.
func branchAndBound(inst *Instance, ev *evaluator, opts BABOptions, eps float64, name string) *Result {
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

search:
	for h.Len() > 0 {
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				// Canceled: return the incumbent with the bound over what
				// is still open.
				break search
			default:
			}
		}
		node := heap.Pop(h).(*babNode)
		if prune(node.upper) || (opts.MaxNodes > 0 && stats.Nodes >= opts.MaxNodes) {
			// Certified (L >= U(1+tol), and the heap holds nothing
			// higher) or out of budget: the popped node stays open.
			setAside = max(setAside, node.upper)
			break
		}
		if node.branch < 0 || node.plan.len() >= k {
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
