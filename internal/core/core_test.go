package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// paperProblem builds the paper's running example (Fig. 1) as an OIPA
// problem: 5 nodes a..e (0..4), two single-topic pieces, α=3, β=1.
func paperProblem(t testing.TB, k int) *Problem {
	t.Helper()
	b := graph.NewBuilder(5, 2)
	type e struct{ u, v, z int32 }
	for _, ed := range []e{
		{0, 1, 0}, {1, 2, 0}, {2, 3, 0},
		{4, 3, 1}, {3, 2, 1}, {2, 1, 1},
	} {
		if err := b.AddEdge(ed.u, ed.v, topic.SingleTopic(ed.z)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		G: g,
		Campaign: topic.Campaign{Name: "paper", Pieces: []topic.Piece{
			{Name: "t1", Dist: topic.SingleTopic(0)},
			{Name: "t2", Dist: topic.SingleTopic(1)},
		}},
		Pool:  []int32{0, 1, 2, 3, 4},
		K:     k,
		Model: logistic.Model{Alpha: 3, Beta: 1},
	}
}

// randomProblem builds a random small OIPA problem for property tests.
func randomProblem(t testing.TB, seed uint64, n, m, poolSize, l, k int) *Problem {
	t.Helper()
	r := xrand.New(seed)
	const z = 3
	b := graph.NewBuilder(n, z)
	added := map[[2]int32]bool{}
	for b.M() < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || added[[2]int32{u, v}] {
			continue
		}
		added[[2]int32{u, v}] = true
		dense := make([]float64, z)
		dense[r.Intn(z)] = 0.2 + 0.6*r.Float64()
		if r.Intn(2) == 0 {
			dense[r.Intn(z)] = 0.1 + 0.4*r.Float64()
		}
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]int32, 0, poolSize)
	for _, p := range r.Sample(n, poolSize) {
		pool = append(pool, int32(p))
	}
	pieces := make([]topic.Piece, l)
	for j := range pieces {
		pieces[j] = topic.Piece{Name: "p", Dist: topic.SingleTopic(int32(j % z))}
	}
	return &Problem{
		G:        g,
		Campaign: topic.Campaign{Name: "rand", Pieces: pieces},
		Pool:     pool,
		K:        k,
		Model:    logistic.Model{Alpha: 2, Beta: 1},
	}
}

// branchyInstance prepares a random instance under a steep logistic model
// (the default α=2 hull bound is tight enough to certify most random
// instances at the root — useless for exercising the search). The steeper
// sigmoid opens a real bound gap, so Tolerance=0 expands a proper tree.
func branchyInstance(t *testing.T, seed uint64, n, m, pool, l, k, theta int, instSeed uint64, alpha, beta float64) *Instance {
	t.Helper()
	p := randomProblem(t, seed, n, m, pool, l, k)
	p.Model = logistic.Model{Alpha: alpha, Beta: beta}
	inst, err := Prepare(context.Background(), p, theta, instSeed)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestProblemValidate(t *testing.T) {
	good := paperProblem(t, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := paperProblem(t, 2)
	bad.K = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero budget accepted")
	}
	bad = paperProblem(t, 2)
	bad.Pool = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty pool accepted")
	}
	bad = paperProblem(t, 2)
	bad.Pool = []int32{0, 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate pool accepted")
	}
	bad = paperProblem(t, 2)
	bad.Pool = []int32{99}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range pool accepted")
	}
	bad = paperProblem(t, 2)
	bad.Model = logistic.Model{}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid model accepted")
	}
	bad = paperProblem(t, 2)
	bad.Campaign.Pieces = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty campaign accepted")
	}
}

func TestPlanOperations(t *testing.T) {
	p := NewPlan(2)
	if p.Size() != 0 {
		t.Fatal("fresh plan not empty")
	}
	p.Seeds[0] = []int32{1, 2}
	p.Seeds[1] = []int32{3}
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
}

func TestPrepareValidates(t *testing.T) {
	p := paperProblem(t, 2)
	if _, err := Prepare(context.Background(), p, 0, 1); err == nil {
		t.Fatal("zero theta accepted")
	}
	p.K = -1
	if _, err := Prepare(context.Background(), p, 100, 1); err == nil {
		t.Fatal("invalid problem accepted")
	}
	big := paperProblem(t, 2)
	pieces := make([]topic.Piece, 40)
	for i := range pieces {
		pieces[i] = topic.Piece{Name: "x", Dist: topic.SingleTopic(0)}
	}
	big.Campaign.Pieces = pieces
	if _, err := Prepare(context.Background(), big, 100, 1); err == nil {
		t.Fatal("40 pieces accepted (mask limit is 32)")
	}
}

func TestBABSolvesPaperExample(t *testing.T) {
	// The optimal budget-2 plan in the paper's Example 1 is {{a},{e}} with
	// σ ≈ 1.05. On the deterministic example graph the MRR estimate
	// concentrates tightly around the exact value.
	p := paperProblem(t, 2)
	inst, err := Prepare(context.Background(), p, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveBAB(inst, BABOptions{Tolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Size() != 2 {
		t.Fatalf("plan size %d, want 2", res.Plan.Size())
	}
	if !slices.Contains(res.Plan.Seeds[0], 0) || !slices.Contains(res.Plan.Seeds[1], 4) {
		t.Fatalf("plan %v, want t1->{a}, t2->{e}", res.Plan.Seeds)
	}
	if math.Abs(res.Utility-1.045) > 0.05 {
		t.Fatalf("utility %v, want about 1.045", res.Utility)
	}
	if res.Upper < res.Utility {
		t.Fatalf("upper bound %v below achieved utility %v", res.Upper, res.Utility)
	}
}

func TestBABPSolvesPaperExample(t *testing.T) {
	p := paperProblem(t, 2)
	inst, err := Prepare(context.Background(), p, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveBABP(inst, BABOptions{Epsilon: 0.5, Tolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.Plan.Seeds[0], 0) || !slices.Contains(res.Plan.Seeds[1], 4) {
		t.Fatalf("plan %v, want t1->{a}, t2->{e}", res.Plan.Seeds)
	}
}

func TestBABMatchesBruteForceOnRandomInstances(t *testing.T) {
	// Theorem 2: BAB with zero tolerance achieves at least (1−1/e)·OPT on
	// the sampled instance. Empirically it should be optimal or nearly so.
	for seed := uint64(1); seed <= 8; seed++ {
		p := randomProblem(t, seed, 25, 80, 5, 2, 3)
		inst, err := Prepare(context.Background(), p, 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := solveBrute(inst)
		if err != nil {
			t.Fatal(err)
		}
		bab, err := SolveBAB(inst, BABOptions{Tolerance: 0})
		if err != nil {
			t.Fatal(err)
		}
		if bab.Utility < (1-1/math.E)*brute.Utility-1e-9 {
			t.Fatalf("seed %d: BAB %v below (1-1/e)·OPT (OPT=%v)", seed, bab.Utility, brute.Utility)
		}
		if bab.Utility > brute.Utility+1e-9 {
			t.Fatalf("seed %d: BAB %v exceeds brute optimum %v", seed, bab.Utility, brute.Utility)
		}
	}
}

func TestBABPApproximationGuarantee(t *testing.T) {
	// Theorem 3: BAB-P achieves (1−1/e−ε)·OPT.
	const eps = 0.5
	for seed := uint64(1); seed <= 6; seed++ {
		p := randomProblem(t, seed, 25, 80, 5, 2, 3)
		inst, err := Prepare(context.Background(), p, 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := solveBrute(inst)
		if err != nil {
			t.Fatal(err)
		}
		babp, err := SolveBABP(inst, BABOptions{Epsilon: eps, Tolerance: 0})
		if err != nil {
			t.Fatal(err)
		}
		if babp.Utility < (1-1/math.E-eps)*brute.Utility-1e-9 {
			t.Fatalf("seed %d: BAB-P %v below (1-1/e-ε)·OPT (OPT=%v)", seed, babp.Utility, brute.Utility)
		}
	}
}

func TestBABPCloseToBAB(t *testing.T) {
	// The paper reports near-equivalent utilities for BAB and BAB-P.
	p := randomProblem(t, 42, 60, 250, 10, 3, 5)
	inst, err := Prepare(context.Background(), p, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	bab, err := SolveBAB(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	babp, err := SolveBABP(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	if babp.Utility < 0.9*bab.Utility {
		t.Fatalf("BAB-P %v more than 10%% below BAB %v", babp.Utility, bab.Utility)
	}
}

func TestBABPFewerTauEvalsPerBoundCall(t *testing.T) {
	// Theorem 4's point: the progressive estimator needs far fewer τ
	// evaluations per ComputeBound invocation than the O(k·n) scan the
	// paper costs Algorithm 2 at. Asserted on the reference routines,
	// which evaluate what the paper's pseudocode evaluates; the production
	// searches — lazy greedy and progressive alike, both fed by the gain
	// frontier — must each average fewer per call than that scan as well.
	p := randomProblem(t, 9, 120, 500, 40, 3, 8)
	inst, err := Prepare(context.Background(), p, 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	scan, pro := newEvaluator(inst), newEvaluator(inst)
	scan.prepare(nil, nil)
	scan.refComputeBound(p.K)
	pro.prepare(nil, nil)
	pro.refComputeBoundPro(p.K, 0.5, false)
	if pro.tauEvals >= scan.tauEvals/2 {
		t.Fatalf("Algorithm 3 τ evals per call (%d) not well below Algorithm 2's scan (%d)", pro.tauEvals, scan.tauEvals)
	}
	bab, err := SolveBAB(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	babp, err := SolveBABP(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{bab, babp} {
		perCall := float64(r.Stats.TauEvals) / float64(r.Stats.BoundEvals)
		t.Logf("%s: %.0f τ evals per call; reference scan %d, reference progressive %d", r.Method, perCall, scan.tauEvals, pro.tauEvals)
		if perCall >= float64(scan.tauEvals)/2 {
			t.Fatalf("%s τ evals per call (%.0f) not well below the scan's (%d)", r.Method, perCall, scan.tauEvals)
		}
	}
}

func TestSolversRespectBudgetAndPool(t *testing.T) {
	p := randomProblem(t, 11, 40, 150, 6, 3, 4)
	inst, err := Prepare(context.Background(), p, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool := map[int32]bool{}
	for _, v := range p.Pool {
		pool[v] = true
	}
	solvers := []func() (*Result, error){
		func() (*Result, error) { return SolveBAB(inst, DefaultBABOptions()) },
		func() (*Result, error) { return SolveBABP(inst, DefaultBABOptions()) },
		func() (*Result, error) { return SolveGreedy(inst, BABOptions{}) },
		func() (*Result, error) { return SolveIM(inst, 1) },
		func() (*Result, error) { return SolveTIM(inst) },
	}
	for _, solve := range solvers {
		res, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Size() > p.K {
			t.Fatalf("%s: plan size %d exceeds budget %d", res.Method, res.Plan.Size(), p.K)
		}
		if len(res.Plan.Seeds) != p.Campaign.L() {
			t.Fatalf("%s: plan has %d pieces", res.Method, len(res.Plan.Seeds))
		}
		for j, seeds := range res.Plan.Seeds {
			seen := map[int32]bool{}
			for _, v := range seeds {
				if !pool[v] {
					t.Fatalf("%s: seed %d not in pool", res.Method, v)
				}
				if seen[v] {
					t.Fatalf("%s: duplicate seed %d in piece %d", res.Method, v, j)
				}
				seen[v] = true
			}
		}
		if res.Utility < 0 {
			t.Fatalf("%s: negative utility", res.Method)
		}
	}
}

func TestBABBeatsBaselines(t *testing.T) {
	// The paper's headline claim: BAB/BAB-P dominate IM and TIM. On small
	// random instances the gap may be modest, but BAB must never lose (it
	// could only lose to sampling noise, which a shared MRR rules out for
	// TIM; IM uses separate samples, so allow a whisker).
	p := randomProblem(t, 13, 60, 250, 8, 3, 5)
	inst, err := Prepare(context.Background(), p, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	bab, err := SolveBAB(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	tim, err := SolveTIM(inst)
	if err != nil {
		t.Fatal(err)
	}
	imr, err := SolveIM(inst, 9)
	if err != nil {
		t.Fatal(err)
	}
	if bab.Utility < tim.Utility-1e-9 {
		t.Fatalf("BAB (%v) lost to TIM (%v)", bab.Utility, tim.Utility)
	}
	if bab.Utility < imr.Utility*0.99 {
		t.Fatalf("BAB (%v) lost to IM (%v)", bab.Utility, imr.Utility)
	}
}

func TestSolveGreedyIsRootBound(t *testing.T) {
	// SolveGreedy equals the first incumbent of BAB, so BAB can only
	// improve on it.
	p := randomProblem(t, 17, 50, 200, 8, 2, 4)
	inst, err := Prepare(context.Background(), p, 1000, 6)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := SolveGreedy(inst, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bab, err := SolveBAB(inst, BABOptions{Tolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	if bab.Utility < greedy.Utility-1e-9 {
		t.Fatalf("BAB (%v) below its root incumbent (%v)", bab.Utility, greedy.Utility)
	}
}

func TestSolverDeterminism(t *testing.T) {
	p := randomProblem(t, 19, 40, 160, 6, 2, 3)
	inst, err := Prepare(context.Background(), p, 800, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolveBABP(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveBABP(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility {
		t.Fatalf("same instance, different utilities: %v vs %v", a.Utility, b.Utility)
	}
	for j := range a.Plan.Seeds {
		if len(a.Plan.Seeds[j]) != len(b.Plan.Seeds[j]) {
			t.Fatal("same instance, different plans")
		}
		for i := range a.Plan.Seeds[j] {
			if a.Plan.Seeds[j][i] != b.Plan.Seeds[j][i] {
				t.Fatal("same instance, different plans")
			}
		}
	}
}

func TestBABMaxNodesCap(t *testing.T) {
	p := randomProblem(t, 23, 60, 250, 10, 3, 6)
	inst, err := Prepare(context.Background(), p, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveBAB(inst, BABOptions{Tolerance: 0, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes > 3 {
		t.Fatalf("expanded %d nodes with cap 3", res.Stats.Nodes)
	}
	if res.Plan.Size() == 0 {
		t.Fatal("capped search returned empty plan")
	}
}

func TestBABPRejectsZeroEpsilon(t *testing.T) {
	p := paperProblem(t, 2)
	inst, err := Prepare(context.Background(), p, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveBABP(inst, BABOptions{}); err == nil {
		t.Fatal("zero epsilon accepted")
	}
	if _, err := SolveBAB(inst, BABOptions{Tolerance: -1}); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestBruteRefusesLargeInstances(t *testing.T) {
	p := randomProblem(t, 29, 200, 800, 100, 4, 50)
	inst, err := Prepare(context.Background(), p, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solveBrute(inst); err == nil {
		t.Fatal("oversized brute force accepted")
	}
}

func TestUpperBoundDominatesUtilityAcrossSolvers(t *testing.T) {
	for seed := uint64(31); seed < 36; seed++ {
		p := randomProblem(t, seed, 30, 120, 5, 2, 3)
		inst, err := Prepare(context.Background(), p, 500, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range []func() (*Result, error){
			func() (*Result, error) { return SolveBAB(inst, DefaultBABOptions()) },
			func() (*Result, error) { return SolveBABP(inst, DefaultBABOptions()) },
		} {
			res, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if res.Upper < res.Utility-1e-9 {
				t.Fatalf("%s: upper %v below utility %v", res.Method, res.Upper, res.Utility)
			}
		}
	}
}

func TestRawGapIrrelevantAtZeroTolerance(t *testing.T) {
	// With Tolerance = 0 the Eq. 6-scale and Eq. 1-scale termination
	// tests coincide, so the production search (raw gap) must reach the
	// strict-gap reference search's utility.
	p := randomProblem(t, 41, 30, 120, 5, 2, 3)
	inst, err := Prepare(context.Background(), p, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := SolveBAB(inst, BABOptions{Tolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := refSolve(inst, refOptions{strictGap: true})
	if plain.Utility != raw.Utility {
		t.Fatalf("the raw gap changed the zero-tolerance result: %v vs %v", plain.Utility, raw.Utility)
	}
	// Node counts may differ by floating-point tie behavior (the shifted
	// comparison rounds differently on exact ties), but not materially.
	if diff := plain.Stats.Nodes - raw.Stats.Nodes; diff < -2 || diff > 2 {
		t.Fatalf("the raw gap changed the zero-tolerance search materially: %d vs %d nodes",
			plain.Stats.Nodes, raw.Stats.Nodes)
	}
}

func TestRawGapTerminatesEarlier(t *testing.T) {
	// On the Eq. 6 scale a 25% tolerance is far looser than on the
	// Eq. 1 scale, so the production search (raw gap) must not expand
	// more nodes than the strict-gap reference search.
	p := randomProblem(t, 43, 60, 250, 10, 3, 6)
	inst, err := Prepare(context.Background(), p, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := BABOptions{Tolerance: 0.25, MaxNodes: 500}
	strict, _ := refSolve(inst, refOptions{BABOptions: opts, strictGap: true})
	loose, err := SolveBAB(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Stats.Nodes > strict.Stats.Nodes {
		t.Fatalf("the raw gap expanded more nodes (%d) than the strict gap (%d)",
			loose.Stats.Nodes, strict.Stats.Nodes)
	}
}

func TestEstimateAUMonotoneInPlan(t *testing.T) {
	p := randomProblem(t, 37, 40, 150, 8, 2, 4)
	inst, err := Prepare(context.Background(), p, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	small := NewPlan(2)
	small.Seeds[0] = []int32{p.Pool[0]}
	large := NewPlan(2)
	large.Seeds[0] = small.Seeds[0]
	large.Seeds[1] = []int32{p.Pool[1], p.Pool[2]}
	us, err := inst.EstimateAU(small)
	if err != nil {
		t.Fatal(err)
	}
	ul, err := inst.EstimateAU(large)
	if err != nil {
		t.Fatal(err)
	}
	if ul < us {
		t.Fatalf("utility decreased when plan grew: %v -> %v", us, ul)
	}
}
