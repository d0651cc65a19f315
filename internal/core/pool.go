package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// EvaluatorPool recycles solver scratch across solves so a long-running
// service answering many queries over one prepared Instance does not
// allocate the O(θ + ℓ·|pool|) evaluator arrays per request. The pool is
// safe for concurrent use: each Solve* call checks out a private
// evaluator for its duration (the Instance, Index and MRR view it reads
// are immutable and shared), so any number of pooled solves may run in
// parallel on one instance without data races.
//
// A pool is shaped by (ℓ, |pool|) at construction and carries a sample
// capacity that only grows: it serves the instance it was built for, any
// WithK / WithModel derivative (same shape; bind reloads the bound
// tables per solve), any θ-prefix of those, and — after
// EnsureTheta — instances grown by ExtendTo. Solving an instance of a
// different (ℓ, |pool|) shape, or one with more samples than the
// capacity, is an error.
type EvaluatorPool struct {
	l, pp int
	theta atomic.Int64 // sample capacity; grows via EnsureTheta
	pool  sync.Pool
}

// NewEvaluatorPool returns a pool shaped for inst and its derivatives.
func NewEvaluatorPool(inst *Instance) *EvaluatorPool {
	p := &EvaluatorPool{l: inst.L(), pp: inst.Index.PoolSize()}
	p.theta.Store(int64(inst.Theta()))
	p.pool.New = func() interface{} { return allocEvaluator(p.l, p.pp, int(p.theta.Load())) }
	return p
}

// EnsureTheta raises the pool's sample capacity to at least theta, so
// instances grown by Instance.ExtendTo keep solving through the same
// pool. Pooled evaluators allocated before the raise are discarded
// lazily at checkout (their θ-sized arrays are too small); in-flight
// solves over smaller instances are unaffected. Capacity never shrinks.
func (p *EvaluatorPool) EnsureTheta(theta int) {
	for {
		cur := p.theta.Load()
		if int64(theta) <= cur {
			return
		}
		if p.theta.CompareAndSwap(cur, int64(theta)) {
			return
		}
	}
}

// Compatible reports whether the pool can serve inst: same (ℓ, |pool|)
// shape, sample count within the pool's capacity.
func (p *EvaluatorPool) Compatible(inst *Instance) bool {
	return inst.L() == p.l && inst.Index.PoolSize() == p.pp && int64(inst.Theta()) <= p.theta.Load()
}

func (p *EvaluatorPool) acquire(inst *Instance) (*evaluator, error) {
	if !p.Compatible(inst) {
		return nil, fmt.Errorf("core: instance shape (l=%d, pool=%d, theta=%d) does not fit pool (l=%d, pool=%d, theta<=%d)",
			inst.L(), inst.Index.PoolSize(), inst.Theta(), p.l, p.pp, p.theta.Load())
	}
	ev := p.pool.Get().(*evaluator)
	if ev.capTheta < inst.Theta() {
		// Pooled scratch predates an EnsureTheta raise; drop it and
		// allocate at the current capacity.
		ev = allocEvaluator(p.l, p.pp, int(p.theta.Load()))
	}
	ev.bind(inst)
	return ev, nil
}

func (p *EvaluatorPool) release(ev *evaluator) {
	ev.resetScratch()
	p.pool.Put(ev)
}

// SolveBAB is SolveBAB with pooled scratch.
func (p *EvaluatorPool) SolveBAB(inst *Instance, opts BABOptions) (*Result, error) {
	return solve(inst, p, opts, solveBAB)
}

// SolveBABP is SolveBABP with pooled scratch.
func (p *EvaluatorPool) SolveBABP(inst *Instance, opts BABOptions) (*Result, error) {
	return solve(inst, p, opts, solveBABP)
}

// SolveGreedy is SolveGreedy with pooled scratch.
func (p *EvaluatorPool) SolveGreedy(inst *Instance, opts BABOptions) (*Result, error) {
	return solve(inst, p, opts, solveGreedy)
}
