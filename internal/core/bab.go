package core

import (
	"container/heap"
	"fmt"
	"time"

	"oipa/internal/logistic"
	"oipa/internal/rrset"
)

// BABOptions tunes the branch-and-bound framework (Algorithm 1).
type BABOptions struct {
	// Progressive selects the upper-bound estimator: Algorithm 2 (plain
	// greedy, false) or Algorithm 3 (progressive threshold, true).
	Progressive bool
	// Epsilon is the progressive threshold decay factor (only used when
	// Progressive is set); larger values trade solution quality for
	// speed per Theorem 3. The paper sweeps 0.1–0.9 and settles on 0.5.
	Epsilon float64
	// Tolerance is the relative gap at which the search stops: the search
	// ends when U <= L·(1+Tolerance). The paper's experiments use 1%.
	// Zero demands the full (1−1/e) certificate.
	Tolerance float64
	// MaxNodes caps node expansions (0 = unbounded); when hit, the best
	// plan so far is returned with the current global upper bound.
	MaxNodes int
	// FillAfterFloor completes a progressive bound's candidate plan with
	// lazy greedy when Algorithm 3's τ-floor fired before the budget was
	// filled. Extending a plan only raises the monotone bound, so the
	// (1−1/e−ε) guarantee is unaffected; what it buys is a full-size
	// incumbent (the paper's reported BAB-P utilities track BAB closely,
	// which a d<k candidate plan cannot do), at the price of Theorem 4's
	// τ-evaluation bound. Enabled by DefaultBABPOptions; zero value is
	// the paper-literal Algorithm 3.
	FillAfterFloor bool
	// Stop, when non-nil, asks the search to return early: as soon as the
	// channel is closed (or receives), the best incumbent found so far is
	// returned together with the residual global upper bound, exactly as
	// when MaxNodes is hit. It is checked once per node expansion, so a
	// solve already inside a bound computation finishes that computation
	// first. This is the reentrant cancellation hook the query service
	// wires to HTTP request contexts and job cancellation.
	Stop <-chan struct{}
	// Sketch routes interior incumbent-candidate evaluations through the
	// index's bottom-k sketch estimator (Index.EstimateAUSketchWith) when
	// sketches are attached: O(k·|plan|) per evaluation instead of a θ-
	// proportional exact scan. The search stays sound — and the returned
	// Utility stays exact — because sketch numbers never leak into the
	// published result: a sketch-estimated candidate that beats the
	// incumbent is re-verified with the exact scan and adopted only if
	// the exact value still wins, and prune() compares bounds against
	// that exact incumbent. The root candidate is always evaluated
	// exactly. Ignored when the index has no sketches attached.
	Sketch bool
	// Workers sets the number of search workers for branch-and-bound.
	// 1 (or 0) keeps today's sequential loop. Above 1, node expansions —
	// the bound computations and candidate evaluations that dominate the
	// search — are precomputed speculatively by Workers−1 extra workers,
	// each with its own evaluator, while a commit loop replays the exact
	// sequential expansion order. Results are therefore bit-identical to
	// Workers=1 for every worker count, at any Tolerance: the same plan,
	// utility, upper bound, and U <= L·(1+Tolerance) certificate.
	// Pruning races the latest exact incumbent (published atomically,
	// only after exact re-verification), so speculation work is sound;
	// its only cost is wasted expansions, reported in SolverStats.
	Workers int
	// TraceWorker, when non-nil, is invoked once per extra search worker
	// (ids 1..Workers−1) as the worker starts; the returned func is
	// called when the worker exits. The serve tier uses it to attach
	// per-worker child spans to the solve.parallel trace span.
	TraceWorker func(worker int) func()
	// RawGap measures the termination gap on the raw Eq. (6) scale, in
	// which every user — covered or not — contributes at least
	// Sigmoid(−α). The paper's L and U both carry that additive
	// n·Sigmoid(−α) mass, so its "1% error ratio" is a gap on this
	// inflated scale; replicating it keeps the search from enumerating
	// the long tail of near-ties that a strict Eq. (1)-scale gap would
	// force. With RawGap the certificate weakens by an additive
	// Tolerance·n·Sigmoid(−α); Tolerance = 0 is unaffected (the scales
	// coincide when the gap must vanish). Default options enable it.
	RawGap bool
}

// DefaultBABOptions mirrors the paper's experimental configuration for
// the plain branch-and-bound (1% termination gap on the Eq. 6 scale).
func DefaultBABOptions() BABOptions {
	return BABOptions{Tolerance: 0.01, RawGap: true}
}

// DefaultBABPOptions mirrors the paper's BAB-P configuration (ε = 0.5).
func DefaultBABPOptions() BABOptions {
	return BABOptions{
		Progressive: true, Epsilon: 0.5, Tolerance: 0.01,
		RawGap: true, FillAfterFloor: true,
	}
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

// evalCheckout checks out one additional evaluator for a parallel search
// worker. The returned release func must be called when the worker is
// done with it. Pooled solves hand the pool's acquire/release pair here
// (the EvaluatorPool multi-checkout path); unpooled solves allocate.
type evalCheckout func() (*evaluator, func(), error)

func directCheckout(inst *Instance) evalCheckout {
	return func() (*evaluator, func(), error) {
		return newEvaluator(inst), func() {}, nil
	}
}

// SolveBAB runs the plain branch-and-bound framework: Algorithm 1 with
// Algorithm 2 as the bound estimator. It returns a plan whose
// MRR-estimated utility is within (1−1/e)/(1+Tolerance) of the
// MRR-estimated optimum (Theorem 2).
func SolveBAB(inst *Instance, opts BABOptions) (*Result, error) {
	return solveBABWith(inst, newEvaluator(inst), directCheckout(inst), opts)
}

// solveBABWith applies the BAB entry-point normalization once for both
// the plain and the pooled path.
func solveBABWith(inst *Instance, ev *evaluator, co evalCheckout, opts BABOptions) (*Result, error) {
	opts.Progressive = false
	return solveBranchAndBound(inst, ev, co, opts, "BAB")
}

// SolveBABP runs branch-and-bound with the progressive upper-bound
// estimator (Algorithm 3), achieving (1−1/e−ε)/(1+Tolerance) with far
// fewer τ evaluations (Theorems 3 and 4).
func SolveBABP(inst *Instance, opts BABOptions) (*Result, error) {
	if err := validateBABP(opts); err != nil {
		return nil, err
	}
	return solveBABPWith(inst, newEvaluator(inst), directCheckout(inst), opts)
}

func validateBABP(opts BABOptions) error {
	if opts.Epsilon <= 0 {
		return fmt.Errorf("core: BAB-P requires a positive epsilon, got %v", opts.Epsilon)
	}
	return nil
}

func solveBABPWith(inst *Instance, ev *evaluator, co evalCheckout, opts BABOptions) (*Result, error) {
	opts.Progressive = true
	return solveBranchAndBound(inst, ev, co, opts, "BAB-P")
}

// SolveGreedy runs a single bound computation from the empty plan and
// returns its candidate solution — the root lower bound of BAB. It has no
// approximation guarantee for OIPA (the objective is not submodular) but
// is a strong, cheap heuristic and the natural ablation for how much the
// search itself adds.
func SolveGreedy(inst *Instance, opts BABOptions) (*Result, error) {
	if err := validateGreedy(opts); err != nil {
		return nil, err
	}
	return solveGreedy(inst, newEvaluator(inst), opts)
}

func validateGreedy(opts BABOptions) error {
	if opts.Progressive && opts.Epsilon <= 0 {
		return fmt.Errorf("core: progressive greedy requires a positive epsilon")
	}
	return nil
}

func solveGreedy(inst *Instance, ev *evaluator, opts BABOptions) (*Result, error) {
	start := time.Now()
	br := ev.bound(nil, nil, inst.Problem.K, &opts)
	name := "GREEDY"
	if opts.Progressive {
		name = "GREEDY-P"
	}
	return &Result{
		Method:  name,
		Plan:    ev.materialize(nil, br.picks),
		Utility: ev.utility(),
		Upper:   br.tau,
		Elapsed: time.Since(start),
		Stats:   SolverStats{BoundEvals: 1, TauEvals: ev.tauEvals},
	}, nil
}

func solveBranchAndBound(inst *Instance, ev *evaluator, co evalCheckout, opts BABOptions, name string) (*Result, error) {
	if opts.Tolerance < 0 {
		return nil, fmt.Errorf("core: negative tolerance %v", opts.Tolerance)
	}
	if opts.Workers > 1 {
		return solveBranchAndBoundParallel(inst, ev, co, opts, name)
	}
	start := time.Now()
	k := inst.Problem.K
	stats := SolverStats{}

	// Root bound: the greedy candidate plan is the initial incumbent. Its
	// utility, like every candidate's, is read off the coverage its bound
	// just built.
	stats.BoundEvals++
	rootBR := ev.bound(nil, nil, k, &opts)
	bestPlan, bestUtil := ev.materialize(nil, rootBR.picks), ev.utility()
	globalUpper := rootBR.tau

	// Interior candidate evaluations may go through the sketch; the exact
	// utility stays the reference for the root, for incumbent
	// re-verification, and for the published Utility.
	var sks *rrset.SketchScratch
	if opts.Sketch && inst.Index.HasSketches() {
		sks = rrset.NewSketchScratch()
	}
	evaluate := func(plan *planNode, picks []candidate) (float64, error) {
		if sks == nil {
			return ev.utility(), nil
		}
		stats.SketchEvals++
		util, err := inst.Index.EstimateAUSketchWith(ev.materialize(plan, picks).Seeds, inst.Problem.Model, sks)
		if err != nil || util <= bestUtil {
			return util, err
		}
		// Sketch numbers steer the search but never become the
		// incumbent: re-verify exactly, so the caller adopts only if the
		// exact value still beats the (exact) incumbent. prune() therefore
		// always compares bounds against an exact lower bound, keeping the
		// certificate sound regardless of sketch error.
		stats.ReVerifyEvals++
		return ev.utility(), nil
	}

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
	// Eq. (6) scale when RawGap is set (see the option's comment).
	gapBase := 0.0
	if opts.RawGap {
		gapBase = float64(inst.Index.MRR().N()) * logistic.Sigmoid(-inst.Problem.Model.Alpha)
	}
	prune := func(upper float64) bool {
		return upper+gapBase <= (bestUtil+gapBase)*(1+opts.Tolerance)
	}

	stopped := false
	for h.Len() > 0 && !stopped {
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				// Canceled: return the incumbent with the residual global
				// upper bound — still a valid (utility, upper) pair, since
				// bounds only shrink as the search proceeds.
				stopped = true
				continue
			default:
			}
		}
		node := heap.Pop(h).(*babNode)
		// The heap is ordered by upper bound, so the popped entry carries
		// the global upper bound over all unexplored subtrees.
		globalUpper = node.upper
		if prune(node.upper) {
			globalUpper = node.upper
			break // L >= U(1+tol): the incumbent is certified
		}
		if node.branch < 0 || node.plan.len() >= k {
			continue // subtree cannot be extended further
		}
		if opts.MaxNodes > 0 && stats.Nodes >= opts.MaxNodes {
			break
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
			br := ev.estimate(k-ch.plan.len(), &opts)
			candUtil, err := evaluate(ch.plan, br.picks)
			if err != nil {
				return nil, err
			}
			if candUtil > bestUtil {
				bestUtil = candUtil
				bestPlan = ev.materialize(ch.plan, br.picks)
			}
			if !prune(br.tau) {
				push(ch.plan, ch.excl, front, br.tau, br.branch)
			}
		}
	}
	if h.Len() == 0 && !stopped {
		// Search space exhausted: every subtree was expanded or pruned
		// against an incumbent no better than the final one, so the
		// residual upper bound is at most bestUtil·(1+tol).
		globalUpper = bestUtil * (1 + opts.Tolerance)
	}

	ev.prepare(nil, nil) // release dirty state (keeps the evaluator reusable)
	stats.TauEvals = ev.tauEvals
	return &Result{
		Method:  name,
		Plan:    bestPlan,
		Utility: bestUtil,
		Upper:   globalUpper,
		Elapsed: time.Since(start),
		Stats:   stats,
	}, nil
}
