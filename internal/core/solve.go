package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// A method is one solver Solve runs, by name.
type method struct {
	name string
	// run solves inst. ev is an evaluator from the lineage's scratch when
	// scratch is set, nil otherwise.
	run         func(ctx context.Context, inst *Instance, ev *evaluator, opts BABOptions) (*Result, error)
	scratch     bool
	progressive bool // BAB-P: Validate holds Epsilon positive
}

// methods are the solvers Solve runs, in the order Methods names them.
var methods = []method{
	{name: "greedy", scratch: true, run: func(_ context.Context, inst *Instance, ev *evaluator, _ BABOptions) (*Result, error) {
		return greedy(inst, ev), nil
	}},
	{name: "bab", scratch: true, run: func(ctx context.Context, inst *Instance, ev *evaluator, opts BABOptions) (*Result, error) {
		return branchAndBound(ctx, inst, ev, opts, 0, "BAB"), nil
	}},
	{name: "babp", scratch: true, progressive: true, run: func(ctx context.Context, inst *Instance, ev *evaluator, opts BABOptions) (*Result, error) {
		return branchAndBound(ctx, inst, ev, opts, opts.Epsilon, "BAB-P"), nil
	}},
	{name: "im", run: func(_ context.Context, inst *Instance, _ *evaluator, _ BABOptions) (*Result, error) {
		return solveIM(inst)
	}},
	{name: "tim", run: func(_ context.Context, inst *Instance, _ *evaluator, _ BABOptions) (*Result, error) {
		return solveTIM(inst)
	}},
}

// Methods returns the names Solve takes.
func Methods() []string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.name
	}
	return names
}

func lookupMethod(name string) (method, bool) {
	for _, m := range methods {
		if m.name == name {
			return m, true
		}
	}
	return method{}, false
}

// Solve runs the solver name names on inst: one of Methods, each
// described in the package doc. It refuses what Validate refuses.
// greedy, bab and babp run on an evaluator from the instance lineage's
// scratch, so concurrent solves on any copies of one lineage allocate
// little and share nothing mutable. bab and babp check ctx once per node
// expansion: once it is done they return the best incumbent so far with
// the bound over what is still open, as when MaxNodes is hit; a solve
// inside a bound computation finishes it first. greedy and the baselines
// run to completion.
func Solve(ctx context.Context, inst *Instance, name string, opts BABOptions) (*Result, error) {
	if err := opts.Validate(name); err != nil {
		return nil, err
	}
	m, _ := lookupMethod(name)
	var ev *evaluator
	if m.scratch {
		ev = inst.lin.acquire(inst)
		defer inst.lin.release(ev)
	}
	return m.run(ctx, inst, ev, opts)
}

// lineage is what every copy derived from one Prepare'd instance shares
// (see Instance).
type lineage struct {
	seed  uint64
	base  baseMemo
	theta atomic.Int64 // the largest θ of the lineage's instances
	evals sync.Pool    // of *evaluator, sized for theta when allocated
}

func newLineage(seed uint64, theta int) *lineage {
	lin := &lineage{seed: seed}
	lin.theta.Store(int64(theta))
	return lin
}

// acquire checks out an evaluator bound to inst, allocating one at the
// lineage's θ when the pool is empty or holds one sized before a
// growth.
func (lin *lineage) acquire(inst *Instance) *evaluator {
	ev, _ := lin.evals.Get().(*evaluator)
	if ev == nil || ev.capTheta < inst.Theta() {
		ev = allocEvaluator(inst.L(), inst.Index.PoolSize(), int(lin.theta.Load()))
	}
	ev.bind(inst)
	return ev
}

func (lin *lineage) release(ev *evaluator) {
	ev.resetScratch()
	lin.evals.Put(ev)
}

// EvaluatorPool and the pool's SolveBAB, SolveBABP and SolveGreedy stay
// only because the benchmark harness (benchmark/) still calls them. The
// pool holds nothing, since solver scratch lives in the instance
// lineage, and each method is Solve without a deadline.
type EvaluatorPool struct{}

// NewEvaluatorPool returns an EvaluatorPool; inst is not read.
func NewEvaluatorPool(*Instance) *EvaluatorPool { return new(EvaluatorPool) }

// SolveBAB is Solve(context.Background(), inst, "bab", opts).
func (*EvaluatorPool) SolveBAB(inst *Instance, opts BABOptions) (*Result, error) {
	return Solve(context.Background(), inst, "bab", opts)
}

// SolveBABP is Solve(context.Background(), inst, "babp", opts).
func (*EvaluatorPool) SolveBABP(inst *Instance, opts BABOptions) (*Result, error) {
	return Solve(context.Background(), inst, "babp", opts)
}

// SolveGreedy is Solve(context.Background(), inst, "greedy", opts).
func (*EvaluatorPool) SolveGreedy(inst *Instance, opts BABOptions) (*Result, error) {
	return Solve(context.Background(), inst, "greedy", opts)
}
