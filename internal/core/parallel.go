package core

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"oipa/internal/faultpoint"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
)

// Parallel branch-and-bound: speculative expansion, deterministic commit.
//
// The search tree is explored by a commit loop that replays the sequential
// Algorithm 1 decisions verbatim — same best-first heap, same FIFO seq
// tie-break, same prune test against the same incumbent, same MaxNodes and
// Stop checks — so the returned plan, utility, and upper bound are
// bit-identical to Workers=1 for any worker count and any Tolerance. What
// runs in parallel is the expensive part of each iteration: expanding a
// node (two bound computations plus two candidate evaluations) is a pure
// function of the node's (plan, excl, branch) chains, because
// evaluator.prepare fully rebuilds scratch state per call. Workers−1
// speculation workers race ahead of the commit loop, each with its own
// checked-out evaluator, picking the globally best unclaimed frontier node
// from sharded priority queues (steal-from-best) and precomputing its
// expansion; the commit loop claims each node it pops — executing inline
// when no worker got there first, otherwise waiting for the finished
// speculation — and applies the results in sequential order.
//
// Workers prune their speculation against the latest published incumbent
// (pubBest, written only by the commit loop and only with exactly
// re-verified values, so sketch estimates never steer pruning), which
// keeps wasted work bounded without ever affecting what the commit loop
// decides.

// atomicF64 is a float64 behind an atomic word: the published incumbent.
type atomicF64 struct{ bits atomic.Uint64 }

func (a *atomicF64) Load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicF64) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// childExpansion is one precomputed branch of a node expansion: the child
// chains, the bound over the child's subtree, and the bound's candidate
// plan evaluated the same way the sequential loop would have.
type childExpansion struct {
	plan *planNode // include/exclude chain for this child
	excl *exclNode
	br   boundResult
	cand Plan    // materialized candidate plan (chain + greedy picks)
	util float64 // evaluate() value: sketch estimate when enabled, exact otherwise
	err  error   // evaluation error; the commit loop surfaces it in child order
	// exact is the candidate's exact utility, read off the bound's
	// coverage; the commit loop re-verifies a sketch incumbent with it.
	exact float64
}

// expandResult is what exec publishes through parNode.done.
type expandResult struct {
	children [2]childExpansion // include first, exclude second (sequential order)
	panicVal interface{}       // worker panic, transferred to the solve goroutine
}

// parNode is a frontier entry shared between the commit loop's replay
// heap and the speculation shards. claimed is the execute-once gate: the
// single CAS winner runs exec and closes done.
type parNode struct {
	plan   *planNode
	excl   *exclNode
	upper  float64
	branch candidate
	seq    int

	claimed atomic.Bool
	done    chan struct{}
	res     expandResult
}

type parHeap []*parNode

func (h parHeap) Len() int { return len(h) }
func (h parHeap) Less(i, j int) bool {
	if h[i].upper != h[j].upper {
		return h[i].upper > h[j].upper
	}
	return h[i].seq < h[j].seq
}
func (h parHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *parHeap) Push(x interface{}) { *h = append(*h, x.(*parNode)) }
func (h *parHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return item
}

// specShard is one slice of the speculation frontier. Nodes land in the
// shard keyed by seq, so pushes from the commit loop spread evenly and
// workers contend on different locks.
type specShard struct {
	mu sync.Mutex
	h  parHeap
}

// workerStats is one worker's private counter block, merged after the
// worker fleet has drained (no atomics on the hot path).
type workerStats struct {
	execs         int64
	steals        int64
	boundEvals    int
	sketchEvals   int64
	reVerifyEvals int64
	tauEvals      int64
}

type parSearch struct {
	inst      *Instance
	opts      BABOptions
	k         int
	useSketch bool
	gapBase   float64
	pubBest   atomicF64 // latest exact incumbent, written by the commit loop only

	shards []specShard
	work   chan struct{} // wake signal for parked workers
	quit   chan struct{}
}

// prunePub is the workers' view of the commit loop's prune test. pubBest
// trails the commit loop's incumbent (it is published after adoption), so
// this can only under-prune — a worker may expand a node the commit loop
// will discard, never the reverse — which costs wasted speculation, not
// correctness.
func (ps *parSearch) prunePub(upper float64) bool {
	return upper+ps.gapBase <= (ps.pubBest.Load()+ps.gapBase)*(1+ps.opts.Tolerance)
}

// offer publishes an expandable frontier node to the speculation shards.
func (ps *parSearch) offer(n *parNode) {
	sh := &ps.shards[n.seq%len(ps.shards)]
	sh.mu.Lock()
	heap.Push(&sh.h, n)
	sh.mu.Unlock()
	select {
	case ps.work <- struct{}{}:
	default:
	}
}

// skimLocked drops shard tops that are already claimed or prunable
// against the published incumbent; the caller holds sh.mu.
func (sh *specShard) skimLocked(ps *parSearch) {
	for len(sh.h) > 0 {
		top := sh.h[0]
		if top.claimed.Load() || ps.prunePub(top.upper) {
			heap.Pop(&sh.h)
			continue
		}
		break
	}
}

// take claims the globally best unclaimed speculation node: scan every
// shard's top, pick the highest bound (seq tie-break), pop and CAS-claim
// it. stolen reports whether the node came from another worker's shard.
func (ps *parSearch) take(self int) (n *parNode, stolen bool) {
	for {
		bestIdx := -1
		var bestUpper float64
		var bestSeq int
		for i := range ps.shards {
			sh := &ps.shards[i]
			sh.mu.Lock()
			sh.skimLocked(ps)
			if len(sh.h) > 0 {
				top := sh.h[0]
				if bestIdx < 0 || top.upper > bestUpper || (top.upper == bestUpper && top.seq < bestSeq) {
					bestIdx, bestUpper, bestSeq = i, top.upper, top.seq
				}
			}
			sh.mu.Unlock()
		}
		if bestIdx < 0 {
			return nil, false
		}
		sh := &ps.shards[bestIdx]
		sh.mu.Lock()
		sh.skimLocked(ps)
		if len(sh.h) == 0 {
			sh.mu.Unlock()
			continue
		}
		cand := heap.Pop(&sh.h).(*parNode)
		sh.mu.Unlock()
		if !cand.claimed.CompareAndSwap(false, true) {
			continue // the commit loop got there first; rescan
		}
		return cand, bestIdx != self
	}
}

// exec expands one claimed node: both children's bounds and candidate
// evaluations, in the sequential include-then-exclude order. It is run by
// whoever won the claim — a speculation worker or the commit loop — and
// always closes n.done. Panics (including injected ones) are captured
// into the result so the commit loop can re-raise them on the solve's own
// goroutine.
func (ps *parSearch) exec(n *parNode, ev *evaluator, sks *rrset.SketchScratch, st *workerStats) {
	defer close(n.done)
	defer func() {
		if p := recover(); p != nil {
			n.res.panicVal = p
		}
	}()
	st.execs++
	if err := faultpoint.Hit("core.search.worker"); err != nil {
		n.res.children[0].err = err
		return
	}
	chains := [2]struct {
		plan *planNode
		excl *exclNode
	}{
		{n.plan.with(n.branch), n.excl},
		{n.plan, n.excl.with(n.branch)},
	}
	for ci := range chains {
		ch := &n.res.children[ci]
		ch.plan, ch.excl = chains[ci].plan, chains[ci].excl
		st.boundEvals++
		ch.br = ev.bound(ch.plan, ch.excl, ps.k-ch.plan.len(), &ps.opts)
		ch.cand = ev.materialize(ch.plan, ch.br.picks)
		ch.br.picks = nil // the evaluator's buffer; the next bound reuses it
		ch.exact = ev.utility()
		ch.util = ch.exact
		if ps.useSketch {
			st.sketchEvals++
			ch.util, ch.err = ps.inst.Index.EstimateAUSketchWith(ch.cand.Seeds, ps.inst.Problem.Model, sks)
			if ch.err != nil {
				return
			}
		}
	}
}

// workerLoop is one speculation worker: claim the best available frontier
// node, expand it, repeat; park on the wake channel when the frontier has
// nothing eligible.
func (ps *parSearch) workerLoop(id int, ev *evaluator, st *workerStats) {
	var sks *rrset.SketchScratch
	if ps.useSketch {
		sks = rrset.NewSketchScratch()
	}
	self := (id - 1) % len(ps.shards)
	for {
		select {
		case <-ps.quit:
			return
		default:
		}
		n, stolen := ps.take(self)
		if n == nil {
			select {
			case <-ps.quit:
				return
			case <-ps.work:
				continue
			}
		}
		if stolen {
			st.steals++
		}
		ps.exec(n, ev, sks, st)
	}
}

// solveBranchAndBoundParallel is solveBranchAndBound for Workers > 1. See
// the package comment at the top of this file for the design; every
// decision that affects the result is made by this function's commit loop
// in exactly the sequential order.
func solveBranchAndBoundParallel(inst *Instance, ev *evaluator, co evalCheckout, opts BABOptions, name string) (*Result, error) {
	start := time.Now()
	k := inst.Problem.K
	stats := SolverStats{}
	useSketch := opts.Sketch && inst.Index.HasSketches()

	var coord workerStats

	// Root bound and initial incumbent: computed up front (and exactly),
	// identically to the sequential path, before any worker starts.
	coord.boundEvals++
	rootBR := ev.bound(nil, nil, k, &opts)
	bestPlan, bestUtil := ev.materialize(nil, rootBR.picks), ev.utility()
	globalUpper := rootBR.tau

	gapBase := 0.0
	if opts.RawGap {
		gapBase = float64(inst.Index.MRR().N()) * logistic.Sigmoid(-inst.Problem.Model.Alpha)
	}

	nspec := opts.Workers - 1
	ps := &parSearch{
		inst: inst, opts: opts, k: k, useSketch: useSketch, gapBase: gapBase,
		shards: make([]specShard, nspec),
		work:   make(chan struct{}, nspec),
		quit:   make(chan struct{}),
	}
	ps.pubBest.Store(bestUtil)

	// Spawn the speculation workers, each holding its own evaluator from
	// the multi-checkout path. A failed checkout (the pool raced a
	// rebind, allocation pressure …) just means fewer workers: the search
	// result never depends on how many spawned.
	wstats := make([]workerStats, nspec)
	var wg sync.WaitGroup
	spawned := 0
	for i := 0; i < nspec; i++ {
		wev, release, cerr := co()
		if cerr != nil {
			break
		}
		spawned++
		wg.Add(1)
		go func(id int, wev *evaluator, release func(), st *workerStats) {
			defer wg.Done()
			defer release()
			if opts.TraceWorker != nil {
				if end := opts.TraceWorker(id); end != nil {
					defer end()
				}
			}
			ps.workerLoop(id, wev, st)
			st.tauEvals = wev.tauEvals
		}(i+1, wev, release, &wstats[i])
	}
	var stopOnce sync.Once
	shutdown := func() {
		stopOnce.Do(func() { close(ps.quit) })
		wg.Wait()
	}
	defer shutdown()

	h := &parHeap{}
	heap.Init(h)
	seq := 0
	push := func(plan *planNode, excl *exclNode, upper float64, branch candidate) {
		seq++
		n := &parNode{plan: plan, excl: excl, upper: upper, branch: branch, seq: seq, done: make(chan struct{})}
		heap.Push(h, n)
		if branch >= 0 && plan.len() < k {
			ps.offer(n)
		}
	}
	push(nil, nil, rootBR.tau, rootBR.branch)

	prune := func(upper float64) bool {
		return upper+gapBase <= (bestUtil+gapBase)*(1+opts.Tolerance)
	}

	var coordSKS *rrset.SketchScratch
	if useSketch {
		coordSKS = rrset.NewSketchScratch()
	}

	stopped := false
	for h.Len() > 0 && !stopped {
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				stopped = true
				continue
			default:
			}
		}
		node := heap.Pop(h).(*parNode)
		globalUpper = node.upper
		if prune(node.upper) {
			globalUpper = node.upper
			break
		}
		if node.branch < 0 || node.plan.len() >= k {
			continue
		}
		if opts.MaxNodes > 0 && stats.Nodes >= opts.MaxNodes {
			break
		}
		stats.Nodes++

		// Claim-or-wait: exactly one party expands the node. When a
		// speculation worker won, the expansion is (or will shortly be)
		// done; otherwise expand inline with the coordinator's evaluator.
		if node.claimed.CompareAndSwap(false, true) {
			ps.exec(node, ev, coordSKS, &coord)
		} else {
			<-node.done
		}
		if p := node.res.panicVal; p != nil {
			// A worker (or the inline expansion) panicked. Containment
			// means transferring the panic to the solve's own goroutine
			// after the fleet has drained, so the caller's recover — the
			// serve tier's handler middleware, the job runner — sees the
			// same panic the sequential solver would have raised, with no
			// leaked goroutines or evaluators behind it.
			shutdown()
			panic(p)
		}
		for ci := range node.res.children {
			ch := &node.res.children[ci]
			if ch.err != nil {
				return nil, ch.err
			}
			candUtil := ch.util
			if candUtil > bestUtil {
				if useSketch {
					// Same contract as the sequential loop: sketch numbers
					// steer, exact numbers decide.
					coord.reVerifyEvals++
					candUtil = ch.exact
				}
				if candUtil > bestUtil {
					bestUtil = candUtil
					bestPlan = ch.cand
					ps.pubBest.Store(bestUtil)
				}
			}
			if !prune(ch.br.tau) {
				push(ch.plan, ch.excl, ch.br.tau, ch.br.branch)
			}
		}
	}
	if h.Len() == 0 && !stopped {
		globalUpper = bestUtil * (1 + opts.Tolerance)
	}
	shutdown()

	ev.prepare(nil, nil) // release dirty state (keeps the evaluator reusable)
	stats.Workers = 1 + spawned
	stats.BoundEvals = coord.boundEvals
	stats.TauEvals = ev.tauEvals
	stats.SketchEvals = coord.sketchEvals
	stats.ReVerifyEvals = coord.reVerifyEvals
	execs := coord.execs
	for i := range wstats {
		st := &wstats[i]
		stats.BoundEvals += st.boundEvals
		stats.TauEvals += st.tauEvals
		stats.SketchEvals += st.sketchEvals
		stats.Steals += st.steals
		stats.SpecExpansions += st.execs
		execs += st.execs
	}
	if wasted := execs - int64(stats.Nodes); wasted > 0 {
		stats.SpecWasted = wasted
	}
	return &Result{
		Method:  name,
		Plan:    bestPlan,
		Utility: bestUtil,
		Upper:   globalUpper,
		Elapsed: time.Since(start),
		Stats:   stats,
	}, nil
}
