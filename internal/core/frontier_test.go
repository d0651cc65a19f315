package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"oipa/internal/gen"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// TestSearchMatchesFromScratchSearch pins the search built on node
// frontiers to refSolve, which prepares every bound from scratch and
// estimates every candidate through the index: the whole Result —
// method aside, and TauEvals, which may only fall — must be equal, BAB
// and BAB-P, capped and exhaustive, on every instance
// variant.
func TestSearchMatchesFromScratchSearch(t *testing.T) {
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
			for _, model := range []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 6, Beta: 2}} {
				inst, err := base.WithModel(model)
				if err != nil {
					t.Fatal(err)
				}
				for _, method := range []string{"bab", "babp"} {
					for _, o := range []BABOptions{{Tolerance: 0.01, MaxNodes: 40}, {Tolerance: 0, MaxNodes: 25}, {Tolerance: 0.01}} {
						if o.MaxNodes == 0 && name != "tiny" {
							continue // exhaustive only where the tree is small
						}
						opts := DefaultBABOptions()
						opts.Tolerance, opts.MaxNodes = o.Tolerance, o.MaxNodes
						label := fmt.Sprintf("seed %d %s α=%v %s tol=%v max=%d", seed, name, model.Alpha, method, o.Tolerance, o.MaxNodes)
						got, err := Solve(context.Background(), inst, method, opts)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := refSolve(inst, refOptions{BABOptions: opts, progressive: method == "babp"})
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

// TestBaseFrontierMatchesFreshBind walks one lineage — Prepare at θ,
// Prefix(θ/2), ExtendTo(2θ), WithK, and WithModel with α 2 and the steep
// α 6, β 2 — binding an evaluator from the lineage's scratch at each
// step through the lineage's memo. Its degrees, order, maxDeg and cum must equal, bit for
// bit, what a fresh instance prepared at the same θ yields from scratch:
// every list's length, the positive empty-plan gains gainOf computes,
// sorted by (gain desc, candidate asc), and marg[0] summed d times. Every
// step at a θ already solved must bind the very frontier memoised there.
func TestBaseFrontierMatchesFreshBind(t *testing.T) {
	ctx := context.Background()
	const theta = 1000
	p := randomProblem(t, 83, 60, 260, 12, 3, 6)
	must := func(inst *Instance, err error) *Instance {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	root := must(Prepare(ctx, p, theta, 7))
	half := must(root.Prefix(theta / 2))
	grown := must(root.ExtendTo(ctx, 2*theta))
	steps := []struct {
		name string
		inst *Instance
		same *Instance // an earlier step at the same θ, or nil
	}{
		{"prepare", root, nil},
		{"prefix", half, nil},
		{"extend", grown, nil},
		{"prefix of parent θ", must(root.Prefix(theta)), root},
		{"prefix of grown", must(grown.Prefix(theta / 2)), half},
		{"withK", must(grown.WithK(2)), grown},
		{"α 2", must(grown.WithModel(logistic.Model{Alpha: 2, Beta: 1})), grown},
		{"α 6 β 2", must(half.WithModel(logistic.Model{Alpha: 6, Beta: 2})), half},
	}
	for _, s := range steps {
		ev := s.inst.lin.acquire(s.inst)
		f := s.inst.baseFrontier()
		if s.same != nil && f != s.same.baseFrontier() {
			t.Fatalf("%s: a frontier of its own at θ %d", s.name, s.inst.Theta())
		}

		fresh := must(Prepare(ctx, s.inst.Problem, s.inst.Theta(), 7))
		ref := newEvaluator(fresh)
		ref.load(nil, nil)
		deg, maxDeg := make([]int32, ref.numCands), int32(0)
		var order []gainEntry
		for c := range deg {
			deg[c] = int32(len(fresh.Index.Samples(c/ref.pp, int32(c%ref.pp))))
			maxDeg = max(maxDeg, deg[c])
			g := ref.gainOf(candidate(c))
			if g > 0 {
				order = append(order, gainEntry{gain: g, cand: candidate(c)})
			}
			if ev.baseGain(candidate(c)) != g {
				t.Fatalf("%s: candidate %d has empty-plan gain %v, fresh gainOf %v", s.name, c, ev.baseGain(candidate(c)), g)
			}
		}
		slices.SortFunc(order, cmpGain)
		wantOrder := make([]candidate, len(order))
		for i, e := range order {
			wantOrder[i] = e.cand
		}
		cum := []float64{0}
		for d := int32(1); d <= maxDeg; d++ {
			cum = append(cum, cum[d-1]+ref.marg[0])
		}
		switch {
		case !slices.Equal(ev.deg, deg):
			t.Fatalf("%s: degrees differ from the fresh instance's", s.name)
		case f.maxDeg != int(maxDeg):
			t.Fatalf("%s: maxDeg %d, fresh %d", s.name, f.maxDeg, maxDeg)
		case !slices.Equal(ev.baseOrder, wantOrder):
			t.Fatalf("%s: order %v, fresh %v", s.name, ev.baseOrder, wantOrder)
		case !slices.EqualFunc(ev.cum, cum, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
			t.Fatalf("%s: cum differs from the fresh one", s.name)
		}
		s.inst.lin.release(ev)
	}
}

// TestConcurrentSolvesShareOneTranspose runs steep pooled searches
// concurrently on one instance and on more θ-prefixes of it than its
// lineage's base-frontier memo has slots, before any has built the index
// transpose: under -race this checks the one-time build and its
// publication to every solve, and the memo's misses, hits and evictions
// under contention. Each result must equal the same search on a freshly
// prepared instance with its own transpose and memo, and the memo must
// end holding baseMemoSlots distinct θ.
func TestConcurrentSolvesShareOneTranspose(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 71, 60, 260, 12, 3, 6)
	p.Model = logistic.Model{Alpha: 6, Beta: 2}
	inst, err := Prepare(ctx, p, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	targets := []*Instance{inst}
	for _, theta := range []int{1100, 1000, 900, 800, 700} {
		prefix, err := inst.Prefix(theta)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, prefix)
	}
	want := map[*Instance]*Result{}
	for _, target := range targets {
		fresh, err := Prepare(ctx, p, target.Theta(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if want[target], err = Solve(context.Background(), fresh, "bab", DefaultBABOptions()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 3*len(targets); w++ {
		target := targets[w%len(targets)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Solve(ctx, target, "bab", DefaultBABOptions())
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
	for _, target := range targets[1:] {
		if inst.Index.Transpose() != target.Index.Transpose() {
			t.Fatalf("the θ %d prefix has a transpose of its own", target.Theta())
		}
	}
	held := map[int]bool{}
	for _, f := range inst.lin.base.slots {
		if f != nil {
			held[f.theta] = true
		}
	}
	if len(held) != baseMemoSlots {
		t.Fatalf("the memo holds %d distinct θ after solves at %d, want %d", len(held), len(targets), baseMemoSlots)
	}
}

// TestWarmSearchAllocations pins what a warm pooled search allocates: a
// 40-node steep BAB takes its chains, nodes, heap, levels and picks from
// the evaluator and materializes only incumbents, so it stays far below
// one allocation per bound (81 bounds). A warm greedy solve binds the
// lineage's memoised base frontier and materializes one plan: it
// allocates a handful (6 when pinned), nothing per candidate (300). The
// greedy runs bind, solve and release on one evaluator, as a pooled
// solve does, without the sync.Pool, which the race detector makes drop
// evaluators at random.
func TestWarmSearchAllocations(t *testing.T) {
	inst := branchyInstance(t, 77, 800, 2400, 100, 3, 8, 4000, 9, 6, 2)
	opts := DefaultBABOptions()
	opts.MaxNodes = 40
	var res *Result
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if res, err = Solve(context.Background(), inst, "bab", opts); err != nil {
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

	ev := allocEvaluator(inst.L(), inst.Index.PoolSize(), inst.Theta())
	allocs = testing.AllocsPerRun(10, func() {
		ev.bind(inst)
		res = greedy(inst, ev)
		ev.resetScratch()
	})
	t.Logf("%v allocations per greedy solve", allocs)
	if allocs > 8 {
		t.Fatalf("%v allocations per warm greedy solve, want at most 8", allocs)
	}
}

// TestUtilityBelowIsSound checks the search's guard on the incumbent
// walk over random tiny instances, models (the steep α 6, β 2 among
// them) and plans, loaded as a partial plan and then extended the way a
// bound extends it: utilityBelow(x) must imply utility() < x, so a
// skipped walk could not have beaten the incumbent, and so
// utilityBelow(utility()) is always false.
func TestUtilityBelowIsSound(t *testing.T) {
	models := []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 6, Beta: 2}, {Alpha: 9, Beta: 0.5}, {Alpha: 0.5, Beta: 3}}
	guarded := 0 // checks where the guard said below
	check := func(seed uint64, m uint8, l uint8) bool {
		p := randomProblem(t, seed, 30, 120, 8, 1+int(l%4), 4)
		p.Model = models[int(m)%len(models)]
		inst, err := Prepare(context.Background(), p, 100+int(seed%400), seed)
		if err != nil {
			t.Fatal(err)
		}
		ev, r := newEvaluator(inst), xrand.New(seed)
		var plan *planNode
		for n := r.Intn(4); n > 0; n-- {
			plan = plan.with(candidate(r.Intn(ev.numCands)))
		}
		ev.load(plan, nil)
		for n := r.Intn(4); n > 0; n-- {
			ev.coverSamples(candidate(r.Intn(ev.numCands)))
		}
		u := ev.utility()
		if ev.utilityBelow(u) {
			t.Logf("seed %d: utilityBelow(utility() = %v)", seed, u)
			return false
		}
		for _, x := range []float64{math.Nextafter(u, math.Inf(1)), u * (1 + 0x1p-40), u * (1 + 0x1p-20), 2*u + 1, u * r.Float64()} {
			if ev.utilityBelow(x) {
				guarded++
				if !(u < x) {
					t.Logf("seed %d: utilityBelow(%v) but utility() = %v", seed, x, u)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if guarded == 0 {
		t.Fatal("the guard never skipped a walk")
	}
}

// TestFrontierMergeIsLazy follows a steep BAB path down by its branch
// variables: below depth 3, where the frontier holds several levels of
// survivors, a bound must leave the merged order produced only as far as
// it read. Every entry the bound consumes costs one τ evaluation except
// an exact bound's first pick, and the stream peeks one entry ahead. No
// level may be ordered further than its readers consumed: a read orders
// one entry at a time, so a level's selection chunk is the entry read.
func TestFrontierMergeIsLazy(t *testing.T) {
	inst := branchyInstance(t, 77, 800, 2400, 100, 3, 10, 4000, 9, 6, 2)
	k := inst.Problem.K
	ev := newEvaluator(inst)
	br := ev.bound(nil, nil, k, 0)
	var plan *planNode
	var front *level
	consumed := map[*level]int{} // the most entries of a level any merge read
	for depth := 1; depth <= 5 && br.branch >= 0; depth++ {
		plan = plan.with(br.branch)
		front = ev.prepareNode(plan, nil, front, true)
		tau := ev.tauEvals
		br = ev.computeBound(k - plan.len())
		read := int(ev.tauEvals-tau) + 1
		survivors := len(ev.aff)
		for _, r := range ev.runs {
			survivors += r.left
		}
		inPlan := map[candidate]bool{}
		for n := plan; n != nil; n = n.parent {
			inPlan[n.cand] = true
		}
		for lv, n := range consumedByMerge(front, func(c candidate) bool { return !inPlan[c] }, ev.aff) {
			consumed[lv] = max(consumed[lv], n)
		}
		t.Logf("depth %d: %d merged of %d survivors, %d read", depth, len(ev.aff), survivors, read)
		if depth < 3 {
			continue
		}
		if len(ev.aff) > read+1 {
			t.Fatalf("depth %d: %d entries merged, %d read", depth, len(ev.aff), read)
		}
		if 4*len(ev.aff) > survivors {
			t.Fatalf("depth %d: %d entries merged of %d survivors", depth, len(ev.aff), survivors)
		}
	}
	if plan.len() < 3 {
		t.Fatalf("the path ended at depth %d", plan.len())
	}
	for lv, depth := front, plan.len(); lv != nil; lv, depth = lv.parent, depth-1 {
		t.Logf("level %d: %d of %d entries ordered, %d consumed", depth, lv.sorted, len(lv.entries), consumed[lv])
		if lv.sorted > consumed[lv] {
			t.Fatalf("level %d: %d entries ordered, its readers consumed %d", depth, lv.sorted, consumed[lv])
		}
	}
}

// consumedByMerge computes, from a fully sorted copy of each of front's
// levels, how many entries a merge that has handed out aff read off
// each: up to and including the run's next survivor, which the merge
// peeks, or its last one once all are out. A level's survivors are the
// eligible candidates with a positive gain that no nearer level holds.
func consumedByMerge(front *level, eligible func(candidate) bool, aff []gainEntry) map[*level]int {
	handed, seen := map[candidate]bool{}, map[candidate]bool{}
	for _, e := range aff {
		handed[e.cand] = true
	}
	out := map[*level]int{}
	for lv := front; lv != nil; lv = lv.parent {
		owned := map[candidate]bool{}
		for _, e := range lv.entries {
			if !seen[e.cand] {
				seen[e.cand], owned[e.cand] = true, e.gain > 0 && eligible(e.cand)
			}
		}
		for i, e := range sortedCopy(lv.entries) {
			if owned[e.cand] {
				out[lv] = i + 1
				if !handed[e.cand] {
					break
				}
			}
		}
	}
	return out
}

// sortedCopy is es fully sorted under cmpGain.
func sortedCopy(es []gainEntry) []gainEntry {
	out := slices.Clone(es)
	slices.SortFunc(out, cmpGain)
	return out
}

// TestLazyLevelsMatchFullSort builds random trees of levels — equal
// gains, gains ≤ 0, candidates repeated across levels — and interleaves
// direct reads of random levels to random depths with merges of random
// chains read to random depths, under random taken candidates, so one
// level is ordered further by several readers in turn. Every read must
// equal a fully sorted copy under cmpGain, every merge the chain's
// survivors sorted, and no level may end ordered further than its
// deepest read.
func TestLazyLevelsMatchFullSort(t *testing.T) {
	const numCands = 24
	gains := []float64{-1, 0, 0.25, 1, 1, 2, 3}
	for seed := uint64(1); seed <= 300; seed++ {
		r := xrand.New(seed)
		ev := allocEvaluator(1, numCands, 1)
		var levels []*level
		for n := 1 + r.Intn(6); n > 0; n-- {
			lv := &level{}
			if len(levels) > 0 && r.Intn(4) != 0 {
				lv.parent = levels[r.Intn(len(levels))]
			}
			for _, c := range r.Perm(numCands)[:r.Intn(numCands+1)] {
				lv.entries = append(lv.entries, gainEntry{gain: gains[r.Intn(len(gains))], cand: candidate(c)})
			}
			levels = append(levels, lv)
		}
		sorted, deepest := map[*level][]gainEntry{}, map[*level]int{}
		for _, lv := range levels {
			sorted[lv] = sortedCopy(lv.entries)
		}
		for step := 0; step < 12; step++ {
			if lv := levels[r.Intn(len(levels))]; r.Intn(2) == 0 && len(lv.entries) > 0 {
				for i := 0; i <= r.Intn(len(lv.entries)); i++ {
					if got := lv.at(i); got != sorted[lv][i] {
						t.Fatalf("seed %d step %d: entry %d is %+v, sorted %+v", seed, step, i, got, sorted[lv][i])
					}
					deepest[lv] = max(deepest[lv], i+1)
				}
				continue
			}
			front := levels[r.Intn(len(levels))]
			ev.epoch++
			taken := map[candidate]bool{}
			for _, c := range r.Perm(numCands)[:r.Intn(4)] {
				ev.takenEpoch[c], taken[candidate(c)] = ev.epoch, true
			}
			var want []gainEntry
			seen := map[candidate]bool{}
			for lv := front; lv != nil; lv = lv.parent {
				for _, e := range lv.entries {
					if !seen[e.cand] && e.gain > 0 && !taken[e.cand] {
						want = append(want, e)
					}
					seen[e.cand] = true
				}
			}
			slices.SortFunc(want, cmpGain)
			ev.mergeFront(front)
			depth := r.Intn(len(want) + 2)
			for i := 0; i < depth; i++ {
				got, ok := ev.affAt(i)
				if i == len(want) {
					if ok {
						t.Fatalf("seed %d step %d: merge entry %d is %+v past the %d survivors", seed, step, i, got, len(want))
					}
					break
				}
				if !ok || got != want[i] {
					t.Fatalf("seed %d step %d: merge entry %d is %+v (%v), want %+v", seed, step, i, got, ok, want[i])
				}
			}
			for lv, n := range consumedByMerge(front, func(c candidate) bool { return !taken[c] }, ev.aff) {
				deepest[lv] = max(deepest[lv], n)
			}
		}
		for i, lv := range levels {
			if lv.sorted > deepest[lv] {
				t.Fatalf("seed %d: level %d ordered %d of %d entries, read to %d", seed, i, lv.sorted, len(lv.entries), deepest[lv])
			}
			for j := 0; j < lv.sorted; j++ {
				if got := lv.entries[len(lv.entries)-1-j]; got != sorted[lv][j] {
					t.Fatalf("seed %d: level %d holds %+v as ordered entry %d, sorted %+v", seed, i, got, j, sorted[lv][j])
				}
			}
		}
	}
}

// BenchmarkWarmSearch times warm pooled solves on one generated instance
// — a three-piece campaign on the dblp preset at scale 0.05, θ 100 000 —
// in process. bab and babp are a 40-node search of k 10 under the steep
// model (α 6, β 2), the shape of a warm_solve_bab request; the mix
// sub-benchmarks are the solves of a warm_query_mix request, under the
// serve default model (α 2, β 1) and options: greedy of k 10, BAB-P of
// k 5, and BAB-P of k 10 on the θ 50 000 prefix.
//
//	go test ./internal/core -run '^$' -bench WarmSearch -benchtime 100x
func BenchmarkWarmSearch(b *testing.B) {
	d, err := gen.Build(gen.Preset("dblp"), 0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := gen.PromoterPool(d.G, 0.10, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(3)
	c := topic.Campaign{Name: "warm"}
	for j := 0; j < 3; j++ {
		c.Pieces = append(c.Pieces, topic.Piece{Name: fmt.Sprint("p", j), Dist: topic.Dirichlet(d.G.Z(), 0.5, 2, rng)})
	}
	p := &Problem{G: d.G, Campaign: c, Pool: pool, K: 10, Model: logistic.Model{Alpha: 6, Beta: 2}}
	inst, err := Prepare(context.Background(), p, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	mix, err := inst.WithModel(logistic.Model{Alpha: 2, Beta: 1})
	if err != nil {
		b.Fatal(err)
	}
	mixK5, err := mix.WithK(5)
	if err != nil {
		b.Fatal(err)
	}
	mixHalf, err := mix.Prefix(50_000)
	if err != nil {
		b.Fatal(err)
	}
	steep := DefaultBABOptions()
	steep.MaxNodes = 40
	for _, s := range []struct {
		name, method string
		inst         *Instance
		opts         BABOptions
	}{
		{"bab", "bab", inst, steep},
		{"babp", "babp", inst, steep},
		{"mix/greedy", "greedy", mix, DefaultBABOptions()},
		{"mix/babp_k5", "babp", mixK5, DefaultBABOptions()},
		{"mix/babp_prefix", "babp", mixHalf, DefaultBABOptions()},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(context.Background(), s.inst, s.method, s.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
