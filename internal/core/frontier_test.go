package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/xrand"
)

// TestSearchMatchesFromScratchSearch pins the search built on node
// frontiers to refSolve, which prepares every bound from scratch and
// estimates every candidate through the index: the whole Result —
// method aside, and TauEvals, which may only fall — must be equal, plain
// and pooled, BAB and BAB-P, capped and exhaustive, on every instance
// variant.
func TestSearchMatchesFromScratchSearch(t *testing.T) {
	type search struct {
		name  string
		solve func(*Instance, BABOptions) (*Result, error)
	}
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	searched := 0 // searches that expanded nodes
	for _, seed := range seeds {
		tiny := branchyInstance(t, 19+seed, 40, 160, 6, 2, 3, 800, 8, 6, 2)
		cases := map[string]*Instance{"tiny": tiny}
		for name, inst := range frontierVariants(t, randomProblem(t, 40+seed, 60, 260, 12, 3, 6), 900, seed) {
			cases[name] = inst
		}
		for name, base := range cases {
			pool := NewEvaluatorPool(base)
			searches := []search{{"bab", SolveBAB}, {"babp", SolveBABP}, {"pooled bab", pool.SolveBAB}, {"pooled babp", pool.SolveBABP}}
			for _, model := range []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 6, Beta: 2}} {
				inst, err := base.WithModel(model)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range searches {
					for _, o := range []BABOptions{{Tolerance: 0.01, MaxNodes: 40}, {Tolerance: 0, MaxNodes: 25}, {Tolerance: 0.01}} {
						if o.MaxNodes == 0 && name != "tiny" {
							continue // exhaustive only where the tree is small
						}
						opts := DefaultBABOptions()
						opts.Tolerance, opts.MaxNodes = o.Tolerance, o.MaxNodes
						label := fmt.Sprintf("seed %d %s α=%v %s tol=%v max=%d", seed, name, model.Alpha, s.name, o.Tolerance, o.MaxNodes)
						got, err := s.solve(inst, opts)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := refSolve(inst, refOptions{BABOptions: opts, progressive: s.name == "babp" || s.name == "pooled babp"})
						if want.Stats.Nodes > 0 {
							searched++
						}
						if got.Stats.TauEvals > want.Stats.TauEvals {
							t.Fatalf("%s: %d τ evaluations, the from-scratch search %d", label, got.Stats.TauEvals, want.Stats.TauEvals)
						}
						got.Method, got.Elapsed, got.Stats.TauEvals = "", 0, want.Stats.TauEvals
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s:\n got %+v\nwant %+v", label, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d searches expanded nodes", searched)
	if searched == 0 {
		t.Fatal("every search certified at the root")
	}
}

// TestUtilityMatchesEstimators pins the incumbent's utility, read off the
// evaluator's coverage, to the two estimators with ==: the index pass
// (EstimateAUWith, one scratch across every plan) and the θ-scan. Plans
// are random — duplicate seeds, empty pieces, the empty plan — over every
// instance variant, a θ-prefix included.
func TestUtilityMatchesEstimators(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		p := randomProblem(t, 60+seed, 60, 260, 12, 3, 6)
		for name, base := range frontierVariants(t, p, 900, seed) {
			for _, model := range []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 6, Beta: 2}} {
				inst, err := base.WithModel(model)
				if err != nil {
					t.Fatal(err)
				}
				ev, au, scan := newEvaluator(inst), new(rrset.AUScratch), inst.Index.MRR().NewEstimator()
				r := xrand.New(seed*31 + uint64(model.Alpha))
				for trial := 0; trial < 40; trial++ {
					plan := NewPlan(inst.L())
					ev.load(nil, nil)
					for j := range plan.Seeds {
						for n := r.Intn(5); n > 0; n-- {
							pos := r.Intn(ev.pp)
							if n%3 == 0 && len(plan.Seeds[j]) > 0 {
								dup, _ := inst.Index.PoolPos(plan.Seeds[j][0]) // a duplicate seed
								pos = int(dup)
							}
							plan.Seeds[j] = append(plan.Seeds[j], inst.Index.Pool()[pos])
							ev.coverSamples(candidate(j*ev.pp + pos))
						}
					}
					label := fmt.Sprintf("seed %d %s α=%v trial %d plan %v", seed, name, model.Alpha, trial, plan.Seeds)
					viaIndex, err := inst.Index.EstimateAUWith(plan.Seeds, model, au)
					if err != nil {
						t.Fatal(err)
					}
					viaScan, err := scan.EstimateAU(plan.Seeds, model)
					if err != nil {
						t.Fatal(err)
					}
					if got := ev.utility(); got != viaIndex || got != viaScan {
						t.Fatalf("%s: coverage %v, index %v, scan %v", label, got, viaIndex, viaScan)
					}
				}
			}
		}
	}
}

// TestConcurrentSolvesShareOneTranspose runs steep pooled searches
// concurrently on one instance and on a θ-prefix of it, before either has
// built the index transpose: under -race this checks the one-time build
// and its publication to every solve, and each result must equal the
// same search on a freshly prepared instance with its own transpose.
func TestConcurrentSolvesShareOneTranspose(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 71, 60, 260, 12, 3, 6)
	p.Model = logistic.Model{Alpha: 6, Beta: 2}
	inst, err := Prepare(ctx, p, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := inst.Prefix(700)
	if err != nil {
		t.Fatal(err)
	}
	want := map[*Instance]*Result{}
	for _, target := range []*Instance{inst, prefix} {
		fresh, err := Prepare(ctx, p, target.Theta(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if want[target], err = SolveBAB(fresh, DefaultBABOptions()); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewEvaluatorPool(inst)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		target := []*Instance{inst, prefix}[w%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := pool.SolveBAB(target, DefaultBABOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if got.Utility != want[target].Utility || got.Upper != want[target].Upper || !reflect.DeepEqual(got.Plan, want[target].Plan) {
				t.Errorf("θ %d: concurrent solve (%v, %v) != fresh instance (%v, %v)",
					target.Theta(), got.Utility, got.Upper, want[target].Utility, want[target].Upper)
			}
		}()
	}
	wg.Wait()
	if want[inst].Stats.Nodes == 0 {
		t.Fatal("the search certified at the root and never read the transpose")
	}
	if inst.Index.Transpose() != prefix.Index.Transpose() {
		t.Fatal("the prefix has a transpose of its own")
	}
}

// TestWarmSearchAllocations pins what a warm pooled search allocates: a
// 40-node steep BAB takes its chains, nodes, heap, levels and picks from
// the evaluator and materializes only incumbents, so it stays far below
// one allocation per bound (81 bounds).
func TestWarmSearchAllocations(t *testing.T) {
	inst := branchyInstance(t, 77, 800, 2400, 100, 3, 8, 4000, 9, 6, 2)
	pool := NewEvaluatorPool(inst)
	opts := DefaultBABOptions()
	opts.MaxNodes = 40
	var res *Result
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if res, err = pool.SolveBAB(inst, opts); err != nil {
			t.Fatal(err)
		}
	})
	if res.Stats.Nodes != 40 {
		t.Fatalf("expanded %d nodes, want the 40-node cap", res.Stats.Nodes)
	}
	t.Logf("%v allocations per 40-node search (%d bounds)", allocs, res.Stats.BoundEvals)
	if allocs > 200 {
		t.Fatalf("%v allocations per warm 40-node search, want at most 200", allocs)
	}
}
