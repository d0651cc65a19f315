package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"oipa/internal/logistic"
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
		func(ev *evaluator, b int) boundResult { return ev.computeBoundPro(b, 0.5, false) },
		func(ev *evaluator, b int) boundResult { return ev.refComputeBoundPro(b, 0.5, false) }},
	{"alg3+fill",
		func(ev *evaluator, b int) boundResult { return ev.computeBoundPro(b, 0.5, true) },
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

// frontierVariants prepares the same (problem, θ, seed) four ways whose
// instances must be interchangeable: fresh, the θ-prefix of a larger
// instance, grown in place from a smaller one, and as a one-layer
// multiplex.
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
		"mux1":     must(Prepare(ctx, muxProblem(t, p), theta, seed)),
	}
}

// TestFrontierMatchesReferenceBounds drives the gain frontier against
// both reference routines along random branch-and-bound paths: at every
// node — a partial plan and an exclusion chain grown by random include /
// exclude decisions on the branch variable or on a random candidate —
// each production routine must return the reference's pick sequence, τ
// and branch variable exactly. One production evaluator serves a whole
// instance, so stamps and scratch are reused the way a search reuses them.
func TestFrontierMatchesReferenceBounds(t *testing.T) {
	models := []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 6, Beta: 2}}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		p := randomProblem(t, 40+seed, 60, 260, 12, 3, 6)
		for name, base := range frontierVariants(t, p, 900, seed) {
			for _, model := range models {
				inst, err := base.WithModel(model)
				if err != nil {
					t.Fatal(err)
				}
				prod, ref := newEvaluator(inst), newEvaluator(inst)
				r := xrand.New(seed*977 + uint64(model.Alpha))
				for path := 0; path < 6; path++ {
					var plan *planNode
					var excl *exclNode
					for depth := 0; depth < 2*inst.Problem.K; depth++ {
						budget := inst.Problem.K - plan.len()
						branch := candidate(-1)
						for _, rt := range boundRoutines {
							prod.prepare(plan, excl)
							got := rt.prod(prod, budget)
							ref.prepare(plan, excl)
							want := rt.ref(ref, budget)
							label := fmt.Sprintf("seed %d %s α=%v path %d depth %d %s", seed, name, model.Alpha, path, depth, rt.name)
							requireSameBound(t, label, want, got)
							branch = want.branch
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
						} else {
							excl = excl.with(c)
						}
					}
				}
			}
		}
	}
}

// TestEpochWrap runs an evaluator's stamp epoch across the uint32 wrap: a
// pooled evaluator lives as long as the server, and a stamp left from
// 2³² prepares ago must not read as taken, excluded or affected.
func TestEpochWrap(t *testing.T) {
	inst := branchyInstance(t, 23, 60, 260, 12, 3, 6, 900, 4, 6, 2)
	old, fresh := newEvaluator(inst), newEvaluator(inst)
	old.epoch = math.MaxUint32 - 2
	var plan *planNode
	var excl *exclNode
	wrapped := false
	for round := 0; round < 8; round++ {
		for _, rt := range boundRoutines {
			if old.epoch == math.MaxUint32 {
				// The next prepare wraps to epoch 1. Every candidate
				// carries a stamp from the evaluator's first prepare,
				// 2³² prepares ago; any of the three left in place
				// hides every candidate from this bound.
				for c := range old.takenEpoch {
					old.takenEpoch[c], old.exclEpoch[c], old.affEpoch[c] = 1, 1, 1
				}
				wrapped = true
			}
			old.prepare(plan, excl)
			got := rt.prod(old, inst.Problem.K-plan.len())
			fresh.prepare(plan, excl)
			want := rt.prod(fresh, inst.Problem.K-plan.len())
			requireSameBound(t, fmt.Sprintf("round %d %s", round, rt.name), want, got)
			switch {
			case want.branch < 0 || plan.len() == inst.Problem.K-1:
				plan, excl = nil, nil
			case round%2 == 0:
				plan = plan.with(want.branch)
			default:
				excl = excl.with(want.branch)
			}
		}
	}
	if !wrapped {
		t.Fatal("the epoch never wrapped")
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
		opts := DefaultBABPOptions()
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
