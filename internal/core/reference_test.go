package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// The reference implementations of Algorithms 2 and 3: the routines the
// solvers ran before the gain frontier, moved here unchanged. They read
// nothing the frontier computes — every initial gain comes from a gainOf
// scan over all candidates — so agreement with them checks the frontier's
// empty-plan gains, its affected sets, the merge and the lazy greedy at
// once.

// refComputeBound is Algorithm 2 as the paper costs it: each iteration
// scans every eligible candidate's marginal gain (O(k·n) τ evaluations)
// and takes the best; ties break toward the smaller candidate id.
func (ev *evaluator) refComputeBound(budget int) boundResult {
	res := boundResult{branch: -1}
	for len(res.picks) < budget {
		best := candidate(-1)
		bestGain := 0.0
		for c := candidate(0); int(c) < ev.numCands; c++ {
			if !ev.eligible(c) {
				continue
			}
			if g := ev.gainOf(c); g > bestGain {
				best, bestGain = c, g
			}
		}
		if best < 0 {
			break // no candidate improves the bound
		}
		ev.takenEpoch[best] = ev.epoch
		ev.coverSamples(best)
		res.picks = append(res.picks, best)
	}
	if len(res.picks) > 0 {
		res.branch = res.picks[0]
	}
	res.tau = ev.scale(ev.tauSum)
	return res
}

// refComputeBoundPro is Algorithm 3 sorting every eligible candidate by
// its individual gain once per call. The fill continues with the full
// scan (the picks of any exact greedy are the same).
func (ev *evaluator) refComputeBoundPro(budget int, eps float64, fill bool) boundResult {
	res := boundResult{branch: -1}
	gains := make([]float64, ev.numCands)
	var order []candidate
	maxinf := 0.0
	for c := candidate(0); int(c) < ev.numCands; c++ {
		if !ev.eligible(c) {
			continue
		}
		g := ev.gainOf(c)
		gains[c] = g
		if g <= 0 {
			continue
		}
		order = append(order, c)
		if g > maxinf {
			maxinf = g
		}
	}
	if maxinf == 0 {
		res.tau = ev.scale(ev.tauSum)
		return res
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if gains[ca] != gains[cb] {
			return gains[ca] > gains[cb]
		}
		return ca < cb
	})

	const floorFactor = (1 / math.E) / (1 - 1/math.E)
	h := maxinf
	for len(res.picks) < budget {
		for _, c := range order {
			if gains[c] < h {
				break // sorted prefix exhausted: δ_∅ < h ⇒ δ_S̄ < h
			}
			if !ev.eligible(c) {
				continue
			}
			if g := ev.gainOf(c); g >= h {
				ev.takenEpoch[c] = ev.epoch
				ev.coverSamples(c)
				res.picks = append(res.picks, c)
				if len(res.picks) == budget {
					break
				}
			}
		}
		if len(res.picks) == budget {
			break
		}
		h /= 1 + eps
		if h <= ev.tauSum/float64(budget)*floorFactor {
			break // Algorithm 3 line 14: remaining candidates cannot matter
		}
	}
	if fill && len(res.picks) < budget {
		done := ev.refComputeBound(budget - len(res.picks))
		res.picks = append(res.picks, done.picks...)
	}
	if len(res.picks) > 0 {
		res.branch = res.picks[0]
	}
	res.tau = ev.scale(ev.tauSum)
	return res
}

// planNode.with and exclNode.with extend a chain by a freshly allocated
// node; the reference search and the frontier tests build paths this way.
func (n *planNode) with(c candidate) *planNode {
	return &planNode{parent: n, cand: c, size: n.len() + 1}
}

func (n *exclNode) with(c candidate) *exclNode {
	return &exclNode{parent: n, cand: c}
}

// refOptions are the reference search's options: the production ones
// plus the two choices the production search fixes.
type refOptions struct {
	BABOptions
	progressive bool // Algorithm 3 bounds (with the fill) instead of Algorithm 2
	strictGap   bool // test the gap on Eq. (1)'s scale, not the raw Eq. (6) one
}

// refSolve is Algorithm 1 as the sequential search ran before search
// nodes carried their frontiers: every bound prepared from scratch, every
// candidate plan materialized and estimated with Index.EstimateAUWith,
// chains and heap nodes allocated per node. Its Result is the search's,
// TauEvals aside, unless strictGap is set. It also returns the bound of
// every subtree it left unexpanded — pruned children, unextendable nodes,
// and what was still open when the loop ended — and Upper is the largest
// of those and the incumbent's utility.
func refSolve(inst *Instance, opts refOptions) (*Result, []float64) {
	ev, au := newEvaluator(inst), new(rrset.AUScratch)
	k := inst.Problem.K
	var stats SolverStats
	evaluate := func(plan *planNode, picks []candidate) (Plan, float64) {
		p := ev.materialize(plan, picks)
		util, err := inst.Index.EstimateAUWith(p.Seeds, inst.Problem.Model, au)
		if err != nil {
			panic(err)
		}
		return p, util
	}
	eps := 0.0
	if opts.progressive {
		eps = opts.Epsilon
	}
	stats.BoundEvals++
	root := ev.bound(nil, nil, k, eps)
	bestPlan, bestUtil := evaluate(nil, root.picks)
	h := &babHeap{&babNode{upper: root.tau, branch: root.branch}}
	seq := 0
	gapBase := 0.0
	if !opts.strictGap {
		gapBase = float64(inst.Index.MRR().N()) * logistic.Sigmoid(-inst.Problem.Model.Alpha)
	}
	prune := func(upper float64) bool { return upper+gapBase <= (bestUtil+gapBase)*(1+opts.Tolerance) }
	var setAside []float64
search:
	for h.Len() > 0 {
		select {
		case <-opts.Stop:
			break search
		default:
		}
		node := heap.Pop(h).(*babNode)
		if prune(node.upper) {
			setAside = append(setAside, node.upper)
			break
		}
		if node.branch < 0 || node.plan.len() >= k {
			setAside = append(setAside, node.upper)
			continue
		}
		if opts.MaxNodes > 0 && stats.Nodes >= opts.MaxNodes {
			setAside = append(setAside, node.upper)
			break
		}
		stats.Nodes++
		for _, ch := range []babNode{{plan: node.plan.with(node.branch), excl: node.excl}, {plan: node.plan, excl: node.excl.with(node.branch)}} {
			stats.BoundEvals++
			br := ev.bound(ch.plan, ch.excl, k-ch.plan.len(), eps)
			if p, util := evaluate(ch.plan, br.picks); util > bestUtil {
				bestPlan, bestUtil = p, util
			}
			if prune(br.tau) {
				setAside = append(setAside, br.tau)
			} else {
				seq++
				heap.Push(h, &babNode{plan: ch.plan, excl: ch.excl, upper: br.tau, branch: br.branch, seq: seq})
			}
		}
	}
	for _, n := range *h {
		setAside = append(setAside, n.upper)
	}
	upper := bestUtil
	for _, tau := range setAside {
		upper = max(upper, tau)
	}
	stats.TauEvals = ev.tauEvals
	return &Result{Plan: bestPlan, Utility: bestUtil, Upper: upper, Stats: stats}, setAside
}

// TestUpperCoversEverySetAsideSubtree checks the published upper bound
// against refSolve's record of every subtree the search left unexpanded,
// on instances small enough for solveBrute, across models, tolerances and
// the ways a search ends: certified or exhausted (BAB, BAB-P), at a node
// cap, or stopped. Upper must reach each of those bounds and the
// utility; the utility must not exceed OPT; and since a node's greedy
// bound is at least (1−1/e) — progressive: (1−1/e−ε) — of the best plan
// in its subtree, Upper must reach that share of OPT.
func TestUpperCoversEverySetAsideSubtree(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	variants := []struct {
		name     string
		babp     bool
		maxNodes int
		stop     <-chan struct{}
	}{
		{"bab", false, 0, nil}, {"babp", true, 0, nil},
		{"bab capped", false, 2, nil}, {"babp capped", true, 2, nil},
		{"bab stopped", false, 0, stop}, {"babp stopped", true, 0, stop},
	}
	models := []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 3, Beta: 1}, {Alpha: 6, Beta: 2}}
	above := 0 // set-aside bounds above Utility·(1+tol)
	for seed := uint64(1); seed <= 8; seed++ {
		base, err := Prepare(context.Background(), randomProblem(t, seed, 25, 80, 5, 2, 3), 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			inst, err := base.WithModel(model)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := solveBrute(inst)
			if err != nil {
				t.Fatal(err)
			}
			for _, tol := range []float64{0, 0.01, 0.05} {
				for _, v := range variants {
					opts, solve, ratio := DefaultBABOptions(), SolveBAB, 1-1/math.E
					if v.babp {
						solve = SolveBABP
						ratio -= opts.Epsilon
					}
					opts.Tolerance, opts.MaxNodes, opts.Stop = tol, v.maxNodes, v.stop
					label := fmt.Sprintf("seed %d α=%v tol=%v %s", seed, model.Alpha, tol, v.name)
					got, err := solve(inst, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, setAside := refSolve(inst, refOptions{BABOptions: opts, progressive: v.babp})
					for _, tau := range setAside {
						if got.Upper < tau {
							t.Fatalf("%s: upper %v below a set-aside subtree's bound %v (utility %v)", label, got.Upper, tau, got.Utility)
						}
						if tau > got.Utility*(1+tol) {
							above++
						}
					}
					if got.Upper < got.Utility {
						t.Fatalf("%s: upper %v below utility %v", label, got.Upper, got.Utility)
					}
					if got.Utility > opt.Utility+1e-9 {
						t.Fatalf("%s: utility %v above OPT %v", label, got.Utility, opt.Utility)
					}
					if got.Upper < ratio*opt.Utility-1e-9 {
						t.Fatalf("%s: upper %v below %.3f·OPT (OPT %v)", label, got.Upper, ratio, opt.Utility)
					}
					if got.Utility != want.Utility || got.Upper != want.Upper || got.Stats.Nodes != want.Stats.Nodes || !reflect.DeepEqual(got.Plan, want.Plan) {
						t.Fatalf("%s: (utility, upper, nodes) (%v, %v, %d), reference (%v, %v, %d)",
							label, got.Utility, got.Upper, got.Stats.Nodes, want.Utility, want.Upper, want.Stats.Nodes)
					}
				}
			}
		}
	}
	t.Logf("%d set-aside bounds above utility·(1+tol)", above)
	if above == 0 {
		t.Fatal("no set-aside bound exceeded utility·(1+tol): the instances do not exercise the bound")
	}
}

// boundRoutine pairs a production bound routine with its reference.
type boundRoutine struct {
	name      string
	prod, ref func(ev *evaluator, budget int) boundResult
}

var boundRoutines = []boundRoutine{
	{"alg2",
		func(ev *evaluator, b int) boundResult { return ev.computeBound(b) },
		func(ev *evaluator, b int) boundResult { return ev.refComputeBound(b) }},
	{"alg3",
		func(ev *evaluator, b int) boundResult { return ev.computeBoundPro(b, 0.5) },
		func(ev *evaluator, b int) boundResult { return ev.refComputeBoundPro(b, 0.5, true) }},
}

// requireSameBound compares two bound results exactly: pick sequence,
// branch variable, and τ with == on the floats.
func requireSameBound(t *testing.T, label string, want, got boundResult) {
	t.Helper()
	if !slices.Equal(got.picks, want.picks) {
		t.Fatalf("%s: picks %v, reference %v", label, got.picks, want.picks)
	}
	if got.tau != want.tau {
		t.Fatalf("%s: tau %v, reference %v", label, got.tau, want.tau)
	}
	if got.branch != want.branch {
		t.Fatalf("%s: branch %d, reference %d", label, got.branch, want.branch)
	}
}

// frontierVariants prepares the same (problem, θ, seed) three ways whose
// instances must be interchangeable: fresh, the θ-prefix of a larger
// instance, and grown in place from a smaller one.
func frontierVariants(t *testing.T, p *Problem, theta int, seed uint64) map[string]*Instance {
	t.Helper()
	ctx := context.Background()
	must := func(inst *Instance, err error) *Instance {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	big := must(Prepare(ctx, p, 2*theta, seed))
	small := must(Prepare(ctx, p, theta/2, seed))
	return map[string]*Instance{
		"fresh":    must(Prepare(ctx, p, theta, seed)),
		"prefix":   must(big.Prefix(theta)),
		"extended": must(small.ExtendTo(ctx, theta)),
	}
}

// requireFrontier checks what a prepared frontier promises, against a
// gainOf scan of every candidate: each eligible candidate it does not
// hold has its empty-plan gain, bit for bit, and the merged order affAt
// reads holds exactly the eligible ones it does hold with a positive
// gain, at their exact gains, in (gain desc, candidate asc) order.
func requireFrontier(t *testing.T, label string, ev *evaluator) {
	t.Helper()
	var want []gainEntry
	for c := candidate(0); int(c) < ev.numCands; c++ {
		if !ev.eligible(c) {
			continue
		}
		switch g := ev.gainOf(c); {
		case ev.affEpoch[c] != ev.epoch && g != ev.baseGain(c):
			t.Fatalf("%s: candidate %d outside the frontier has gain %v, empty-plan gain %v", label, c, g, ev.baseGain(c))
		case ev.affEpoch[c] == ev.epoch && g > 0:
			want = append(want, gainEntry{gain: g, cand: c})
		}
	}
	slices.SortFunc(want, cmpGain)
	var got []gainEntry
	for i := 0; ; i++ {
		e, ok := ev.affAt(i)
		if !ok {
			break
		}
		got = append(got, e)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: frontier %v, want %v", label, got, want)
	}
}

// TestFrontierMatchesReferenceBounds drives the gain frontier along random
// branch-and-bound paths: at every node — a partial plan and an exclusion
// chain grown by random include / exclude decisions on the branch
// variable or on a random candidate — the frontier prepared from scratch
// and the one chained down the path, the way the search derives a child's
// from its parent's, must both keep requireFrontier's promise and load
// the same entries, and every production routine must return the same
// pick sequence, τ and branch variable from either. At θ 900 those must
// also be the reference routines'. At θ 60, where plans cover whole lists
// and gains fall to 0, the steep model's hull marginals rise by one ulp
// from count 1 to 2 (marg[0][1] < marg[0][2]), which breaks the lazy
// greedy's premise that cached gains are upper bounds: there it may pick
// near-tied candidates in a different order than the full scan, so the
// reference is compared under the flat model only. One evaluator of each
// kind serves a whole instance, so stamps, levels and scratch are reused
// the way a search reuses them.
func TestFrontierMatchesReferenceBounds(t *testing.T) {
	models := []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 6, Beta: 2}}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		p := randomProblem(t, 40+seed, 60, 260, 12, 3, 6)
		for _, theta := range []int{900, 60} {
			for name, base := range frontierVariants(t, p, theta, seed) {
				for _, model := range models {
					inst, err := base.WithModel(model)
					if err != nil {
						t.Fatal(err)
					}
					withRef := theta == 900 || model.Alpha == 2
					prod, chained, ref := newEvaluator(inst), newEvaluator(inst), newEvaluator(inst)
					r := xrand.New(seed*977 + uint64(model.Alpha))
					for path := 0; path < 6; path++ {
						var plan *planNode
						var excl *exclNode
						var front *level
						for depth := 0; depth < 2*inst.Problem.K; depth++ {
							budget := inst.Problem.K - plan.len()
							branch := candidate(-1)
							for _, rt := range boundRoutines {
								label := fmt.Sprintf("seed %d θ %d %s α=%v path %d depth %d %s", seed, theta, name, model.Alpha, path, depth, rt.name)
								prod.prepare(plan, excl)
								requireFrontier(t, label, prod)
								chained.prepareNode(plan, excl, front, false)
								requireFrontier(t, label+" chained", chained)
								got := rt.prod(prod, budget)
								requireSameBound(t, label+" chained", got, rt.prod(chained, budget))
								if withRef {
									ref.prepare(plan, excl)
									requireSameBound(t, label, rt.ref(ref, budget), got)
								}
								branch = got.branch
							}
							if budget == 0 {
								break
							}
							// Branch like the search does, or — one time in
							// three — on a candidate no bound suggested.
							c := branch
							if c < 0 || r.Intn(3) == 0 {
								c = candidate(r.Intn(prod.numCands))
							}
							prod.prepare(plan, excl)
							if !prod.eligible(c) {
								continue
							}
							if r.Intn(2) == 0 {
								plan = plan.with(c)
								front = chained.prepareNode(plan, excl, front, true)
							} else {
								excl = excl.with(c)
							}
						}
					}
				}
			}
		}
	}
}

// TestEpochWrap runs evaluators' stamp epochs across the uint32 wrap: a
// pooled evaluator lives as long as the server, and a stamp left from
// 2³² prepares ago must not read as taken, excluded, affected or reached.
// Every prepare of the wrapping evaluators — from scratch, chained, and
// the chained include that builds a level — wraps, and each must match an
// evaluator that never wraps.
func TestEpochWrap(t *testing.T) {
	inst := branchyInstance(t, 23, 60, 260, 12, 3, 6, 900, 4, 6, 2)
	old, oldChained, fresh := newEvaluator(inst), newEvaluator(inst), newEvaluator(inst)
	// wrapNext makes ev's next prepare wrap to epoch 1 while every
	// candidate carries stamp 1 from the evaluator's first prepare; any of
	// the four stamps left in place hides every candidate from it.
	wrapNext := func(ev *evaluator) {
		ev.epoch = math.MaxUint32
		for c := range ev.takenEpoch {
			ev.takenEpoch[c], ev.exclEpoch[c], ev.affEpoch[c], ev.reachEpoch[c] = 1, 1, 1, 1
		}
	}
	var plan *planNode
	var excl *exclNode
	var front *level
	for round := 0; round < 8; round++ {
		for _, rt := range boundRoutines {
			label := fmt.Sprintf("round %d %s", round, rt.name)
			budget := inst.Problem.K - plan.len()
			fresh.prepare(plan, excl)
			want := rt.prod(fresh, budget)
			wrapNext(old)
			old.prepare(plan, excl)
			requireSameBound(t, label, want, rt.prod(old, budget))
			wrapNext(oldChained)
			oldChained.prepareNode(plan, excl, front, false)
			requireSameBound(t, label+" chained", want, rt.prod(oldChained, budget))
			switch {
			case want.branch < 0 || plan.len() == inst.Problem.K-1:
				plan, excl, front = nil, nil, nil
			case round%2 == 0:
				plan = plan.with(want.branch)
				wrapNext(oldChained)
				front = oldChained.prepareNode(plan, excl, front, true)
			default:
				excl = excl.with(want.branch)
			}
		}
	}
}

func TestLazyBoundMatchesPlainGreedy(t *testing.T) {
	// The lazy greedy must reproduce the full-scan greedy's selections
	// and bound values exactly — it only changes the number of τ
	// evaluations, which must be far below the scan's.
	for seed := uint64(1); seed <= 6; seed++ {
		p := randomProblem(t, seed, 50, 200, 10, 3, 5)
		inst, err := Prepare(context.Background(), p, 800, seed)
		if err != nil {
			t.Fatal(err)
		}
		scan, lazy := newEvaluator(inst), newEvaluator(inst)
		scan.prepare(nil, nil)
		want := scan.refComputeBound(p.K)
		lazy.prepare(nil, nil)
		got := lazy.computeBound(p.K)
		requireSameBound(t, fmt.Sprintf("seed %d", seed), want, got)
		if lazy.tauEvals >= scan.tauEvals/2 {
			t.Fatalf("seed %d: lazy τ evals (%d) not well below the scan's (%d)", seed, lazy.tauEvals, scan.tauEvals)
		}
	}
}

func TestLazyGreedySolver(t *testing.T) {
	// SolveGreedy publishes the full-scan greedy's plan: same upper bound,
	// same utility.
	p := randomProblem(t, 7, 40, 160, 8, 2, 4)
	inst, err := Prepare(context.Background(), p, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(inst)
	ev.prepare(nil, nil)
	scan := ev.refComputeBound(p.K)
	want, err := inst.EstimateAU(ev.materialize(nil, scan.picks))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveGreedy(inst, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Utility != want || got.Upper != scan.tau {
		t.Fatalf("greedy (%v, %v) != full-scan greedy (%v, %v)", got.Utility, got.Upper, want, scan.tau)
	}
}

// TestBoundWorkFollowsTheAffectedSet pins the frontier's economics on a
// fixed instance: with no plan nothing is affected, so a root bound costs
// about one τ evaluation per pick after the free first one — not one per
// candidate — and across a 40-node search under the steep model the
// average bound evaluates well under a quarter of the candidates. (A
// scan-seeded routine spends at least numCands per bound.)
func TestBoundWorkFollowsTheAffectedSet(t *testing.T) {
	inst := branchyInstance(t, 77, 800, 2400, 100, 3, 8, 4000, 9, 6, 2)
	k := inst.Problem.K
	ev := newEvaluator(inst)
	for _, rt := range boundRoutines {
		before := ev.tauEvals
		ev.prepare(nil, nil)
		br := rt.prod(ev, k)
		spent := ev.tauEvals - before
		t.Logf("root %s: %d picks, %d τ evals", rt.name, len(br.picks), spent)
		if len(br.picks) != k {
			t.Fatalf("root %s: %d picks, want %d", rt.name, len(br.picks), k)
		}
		if spent > int64(k)+4 {
			t.Fatalf("root %s spent %d τ evals for %d picks over %d candidates", rt.name, spent, k, ev.numCands)
		}
	}
	for _, solve := range []func(*Instance, BABOptions) (*Result, error){SolveBAB, SolveBABP} {
		opts := DefaultBABOptions()
		opts.Tolerance, opts.MaxNodes = 0, 40
		res, err := solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d nodes, %d bounds, %d τ evals over %d candidates", res.Method, res.Stats.Nodes, res.Stats.BoundEvals, res.Stats.TauEvals, ev.numCands)
		if res.Stats.Nodes != 40 {
			t.Fatalf("%s expanded %d nodes, want the 40-node cap", res.Method, res.Stats.Nodes)
		}
		if limit := int64(res.Stats.BoundEvals) * int64(ev.numCands) / 4; res.Stats.TauEvals >= limit {
			t.Fatalf("%s: %d τ evals, want fewer than BoundEvals × numCands / 4 = %d", res.Method, res.Stats.TauEvals, limit)
		}
	}
}

// refGreedyCover is greedy maximum coverage as the textbook states it,
// over the raw sets of piece j: each round recounts, for every pool
// member not yet taken, the uncovered samples whose set holds it, and
// takes the first (in pool order) with the strictly largest count,
// stopping when none covers anything new. It shares no code with the
// Index greedyCover walks.
func refGreedyCover(v *rrset.MRRView, j int, pool []int32, k int) []int32 {
	covered := make([]bool, v.Theta())
	taken := make([]bool, len(pool))
	holds := func(i int, u int32) bool { return slices.Contains(v.Set(i, j), u) }
	var seeds []int32
	for len(seeds) < k {
		best, bestCount := -1, 0
		for p, u := range pool {
			if taken[p] {
				continue
			}
			count := 0
			for i := range covered {
				if !covered[i] && holds(i, u) {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = p, count
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		seeds = append(seeds, pool[best])
		for i := range covered {
			if holds(i, pool[best]) {
				covered[i] = true
			}
		}
	}
	return seeds
}

// TestIMMatchesReferenceCover checks SolveIM against refGreedyCover on a
// freshly sampled one-piece collection of the uniform topic mixture at
// several θ and seeds: the seeds SolveIM assigns must be the
// reference's, in order, on the piece whose estimate is largest (the
// first on ties), and its utility that estimate, bit for bit.
func TestIMMatchesReferenceCover(t *testing.T) {
	picked := 0
	for seed := uint64(1); seed <= 4; seed++ {
		p := randomProblem(t, 60+seed, 60, 260, 14, 3, 4)
		for _, theta := range []int{50, 700, 3000} {
			label := fmt.Sprintf("seed %d θ %d", seed, theta)
			inst, err := Prepare(context.Background(), p, theta, seed)
			if err != nil {
				t.Fatal(err)
			}
			imSeed := 17 * seed
			got, err := SolveIM(inst, imSeed)
			if err != nil {
				t.Fatal(err)
			}
			uniform := make([]float64, p.G.Z())
			for z := range uniform {
				uniform[z] = 1 / float64(len(uniform))
			}
			lay, err := p.G.PieceLayout(topic.FromDense(uniform))
			if err != nil {
				t.Fatal(err)
			}
			col, err := rrset.NewMRRCollection(p.G, []*graph.PieceLayout{lay}, imSeed)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.ExtendTo(theta); err != nil {
				t.Fatal(err)
			}
			seeds := refGreedyCover(col.View(), 0, p.Pool, p.K)
			want, wantUtil := NewPlan(inst.L()), 0.0
			if len(seeds) > 0 {
				wantUtil = -1
				for j := 0; j < inst.L(); j++ {
					plan := NewPlan(inst.L())
					plan.Seeds[j] = seeds
					util, err := inst.EstimateAU(plan)
					if err != nil {
						t.Fatal(err)
					}
					if util > wantUtil {
						want, wantUtil = plan, util
					}
				}
			}
			if !reflect.DeepEqual(got.Plan, want) || got.Utility != wantUtil {
				t.Fatalf("%s: SolveIM plan %v utility %v, reference %v utility %v", label, got.Plan.Seeds, got.Utility, want.Seeds, wantUtil)
			}
			picked += len(seeds)
		}
	}
	if picked == 0 {
		t.Fatal("no instance picked a seed: the grid does not exercise the greedy")
	}
}
