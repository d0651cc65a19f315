package core

import (
	"context"
	"math"
	"testing"

	"oipa/internal/xrand"
)

// newEvaluator returns an evaluator of its own bound to inst, outside
// the lineage's scratch.
func newEvaluator(inst *Instance) *evaluator {
	ev := allocEvaluator(inst.L(), inst.Index.PoolSize(), inst.Theta())
	ev.bind(inst)
	return ev
}

// prepInstance builds a small instance with a fresh evaluator for
// white-box tests of the bound machinery.
func prepInstance(t *testing.T, seed uint64) (*Instance, *evaluator) {
	t.Helper()
	p := randomProblem(t, seed, 30, 120, 6, 3, 4)
	inst, err := Prepare(context.Background(), p, 500, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst, newEvaluator(inst)
}

func TestEvaluatorTauStartsAtZero(t *testing.T) {
	// With the hull bound, an empty plan has τ = 0 in utility units:
	// Value(0,0) = 0 per Eq. (1)'s zero branch.
	_, ev := prepInstance(t, 1)
	ev.prepare(nil, nil)
	if got := ev.scale(ev.tauSum); got != 0 {
		t.Fatalf("empty-plan tau = %v, want 0", got)
	}
}

func TestEvaluatorGainMatchesCoverDelta(t *testing.T) {
	// Property: gainOf(c) must equal the tauSum delta actually produced
	// by coverSamples(c), for random candidates in random states.
	_, ev := prepInstance(t, 2)
	r := xrand.New(7)
	for trial := 0; trial < 30; trial++ {
		ev.prepare(nil, nil)
		// Random warm-up additions.
		for w := 0; w < r.Intn(4); w++ {
			c := candidate(r.Intn(ev.numCands))
			if ev.eligible(c) {
				ev.takenEpoch[c] = ev.epoch
				ev.coverSamples(c)
			}
		}
		c := candidate(r.Intn(ev.numCands))
		if !ev.eligible(c) {
			continue
		}
		want := ev.gainOf(c)
		before := ev.tauSum
		got := ev.coverSamples(c)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: coverSamples delta %v != gainOf %v", trial, got, want)
		}
		if math.Abs(ev.tauSum-before-want) > 1e-12 {
			t.Fatalf("trial %d: tauSum accounting off", trial)
		}
	}
}

func TestEvaluatorGainsAreSubmodularAcrossAdditions(t *testing.T) {
	// Adding other candidates never increases a fixed candidate's gain.
	_, ev := prepInstance(t, 3)
	r := xrand.New(11)
	ev.prepare(nil, nil)
	fixed := candidate(0)
	prev := ev.gainOf(fixed)
	for w := 0; w < 10; w++ {
		c := candidate(1 + r.Intn(ev.numCands-1))
		if !ev.eligible(c) {
			continue
		}
		ev.takenEpoch[c] = ev.epoch
		ev.coverSamples(c)
		g := ev.gainOf(fixed)
		if g > prev+1e-12 {
			t.Fatalf("gain of fixed candidate increased: %v -> %v", prev, g)
		}
		prev = g
	}
}

func TestEvaluatorPrepareResetsState(t *testing.T) {
	// prepare must leave no residue from the previous evaluation.
	_, ev := prepInstance(t, 4)
	ev.prepare(nil, nil)
	base := ev.gainOf(0)
	// Heavy mutation.
	for c := candidate(0); int(c) < ev.numCands; c += 2 {
		if ev.eligible(c) {
			ev.takenEpoch[c] = ev.epoch
			ev.coverSamples(c)
		}
	}
	ev.prepare(nil, nil)
	if got := ev.gainOf(0); math.Abs(got-base) > 1e-12 {
		t.Fatalf("gain after reset %v != initial %v", got, base)
	}
	if ev.scale(ev.tauSum) != 0 {
		t.Fatalf("tau after reset = %v", ev.scale(ev.tauSum))
	}
}

func TestEvaluatorPartialPlanRefinesAnchors(t *testing.T) {
	// Loading a partial plan re-anchors τ at the plan's exact utility
	// contribution: τ(S̄a|S̄a) equals Σ_i adoption(covered_i)·n/θ, which
	// is exactly the index estimator's value for the same plan.
	inst, ev := prepInstance(t, 5)
	var chain *planNode
	chain = chain.with(candidate(0))
	chain = chain.with(candidate(ev.pp + 1)) // piece 1, pool pos 1
	ev.prepare(chain, nil)
	tau := ev.scale(ev.tauSum)
	plan := ev.materialize(chain, nil)
	util, err := inst.EstimateAU(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tau-util) > 1e-9 {
		t.Fatalf("anchored tau %v != plan utility %v", tau, util)
	}
}

func TestEvaluatorExclusionsBlockCandidates(t *testing.T) {
	_, ev := prepInstance(t, 6)
	var excl *exclNode
	excl = excl.with(candidate(3))
	ev.prepare(nil, excl)
	if ev.eligible(3) {
		t.Fatal("excluded candidate still eligible")
	}
	br := ev.computeBound(4)
	for _, c := range br.picks {
		if c == 3 {
			t.Fatal("greedy picked an excluded candidate")
		}
	}
}

func TestComputeBoundRespectsBudget(t *testing.T) {
	_, ev := prepInstance(t, 7)
	ev.prepare(nil, nil)
	br := ev.computeBound(2)
	if len(br.picks) > 2 {
		t.Fatalf("greedy picked %d candidates with budget 2", len(br.picks))
	}
	if br.branch != br.picks[0] {
		t.Fatal("branch candidate is not the first pick")
	}
}

// TestFullPlanBoundDoesNotBranch pins why the search needs no check that
// a node's plan is full: its child with k candidates is bounded with
// budget 0, and both bounds then pick nothing and branch on -1, although
// candidates with a positive gain remain (a budget of 1 still branches).
func TestFullPlanBoundDoesNotBranch(t *testing.T) {
	for seed := uint64(20); seed < 24; seed++ {
		inst, ev := prepInstance(t, seed)
		k := inst.Problem.K
		var plan *planNode
		for _, c := range ev.bound(nil, nil, k, 0).picks {
			plan = plan.with(c)
		}
		if plan.len() != k {
			t.Fatalf("seed %d: the root bound picked %d of %d", seed, plan.len(), k)
		}
		for _, eps := range []float64{0, 0.5} {
			if br := ev.bound(plan, nil, k-plan.len(), eps); br.branch != -1 || len(br.picks) != 0 {
				t.Fatalf("seed %d ε %v: a full plan's bound branches on %d with %d picks", seed, eps, br.branch, len(br.picks))
			}
			if br := ev.bound(plan, nil, 1, eps); br.branch < 0 {
				t.Fatalf("seed %d ε %v: nothing left to branch on", seed, eps)
			}
		}
	}
}

func TestComputeBoundProSubsetOfBudget(t *testing.T) {
	// The paper's Algorithm 3 (the reference, without the fill) may stop
	// below budget (floor), but never above; the production bound, with
	// the fill, reaches the budget when candidates remain.
	_, ev := prepInstance(t, 8)
	ev.prepare(nil, nil)
	noFill := ev.refComputeBoundPro(6, 0.5, false)
	if len(noFill.picks) > 6 {
		t.Fatalf("progressive picked %d with budget 6", len(noFill.picks))
	}
	ev.prepare(nil, nil)
	fill := ev.computeBoundPro(6, 0.5)
	if len(fill.picks) < len(noFill.picks) {
		t.Fatalf("fill returned fewer picks (%d) than no-fill (%d)", len(fill.picks), len(noFill.picks))
	}
	if fill.tau < noFill.tau-1e-9 {
		t.Fatalf("fill lowered tau: %v < %v", fill.tau, noFill.tau)
	}
}

func TestBoundResultTauDominatesPlanUtility(t *testing.T) {
	// The bound value of a greedy-completed plan dominates the plan's own
	// estimated utility (the hull dominates the adoption curve).
	for seed := uint64(10); seed < 14; seed++ {
		inst, ev := prepInstance(t, seed)
		ev.prepare(nil, nil)
		br := ev.computeBound(inst.Problem.K)
		plan := ev.materialize(nil, br.picks)
		util, err := inst.EstimateAU(plan)
		if err != nil {
			t.Fatal(err)
		}
		if br.tau < util-1e-9 {
			t.Fatalf("seed %d: tau %v below plan utility %v", seed, br.tau, util)
		}
	}
}

func TestPlanChainBookkeeping(t *testing.T) {
	var n *planNode
	if n.len() != 0 {
		t.Fatal("nil chain has non-zero length")
	}
	n = n.with(5)
	n = n.with(7)
	if n.len() != 2 {
		t.Fatalf("chain length %d, want 2", n.len())
	}
	if n.cand != 7 || n.parent.cand != 5 {
		t.Fatal("chain order wrong")
	}
}
