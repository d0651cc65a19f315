package hardness

import (
	"context"
	"math"
	"testing"

	"oipa/internal/core"
	"oipa/internal/xrand"
)

// mkInstance builds a CliqueInstance from an edge list.
func mkInstance(n int, edges [][2]int) *CliqueInstance {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range edges {
		adj[e[0]][e[1]] = true
		adj[e[1]][e[0]] = true
	}
	return &CliqueInstance{Adj: adj}
}

func TestValidate(t *testing.T) {
	good := mkInstance(3, [][2]int{{0, 1}})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := mkInstance(3, nil)
	bad.Adj[1][1] = true
	if err := bad.Validate(); err == nil {
		t.Fatal("self loop accepted")
	}
	bad2 := mkInstance(3, nil)
	bad2.Adj[0][1] = true // asymmetric
	if err := bad2.Validate(); err == nil {
		t.Fatal("asymmetric adjacency accepted")
	}
}

func TestMaxCliqueBruteKnown(t *testing.T) {
	cases := []struct {
		name string
		inst *CliqueInstance
		want int
	}{
		{"empty-graph", mkInstance(4, nil), 1},
		{"single-edge", mkInstance(4, [][2]int{{0, 1}}), 2},
		{"triangle", mkInstance(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}), 3},
		{"path", mkInstance(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), 2},
		{"k4", mkInstance(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}), 4},
		{"k4-plus-pendant", mkInstance(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}), 4},
	}
	for _, tc := range cases {
		if got := MaxCliqueBrute(tc.inst); got != tc.want {
			t.Fatalf("%s: clique = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	src := mkInstance(3, [][2]int{{0, 1}})
	red, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	g := red.Problem.G
	if g.N() != 9 {
		t.Fatalf("reduction has %d vertices, want 9", g.N())
	}
	// Edge count: x_i contributes 1+deg(i); y_i contributes n-1.
	wantEdges := (1 + 1) + (1 + 1) + (1 + 0) + 3*2
	if g.M() != wantEdges {
		t.Fatalf("reduction has %d edges, want %d", g.M(), wantEdges)
	}
	// α, β per the construction: all-n pieces means adoption exactly 1/2.
	m := red.Problem.Model
	if got := m.Adoption(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("adoption with all pieces = %v, want 1/2", got)
	}
	if got := m.Adoption(2); got > 1/(1+36.0)+1e-12 {
		t.Fatalf("adoption with n-1 pieces = %v, want <= 1/(1+(2n)^2)", got)
	}
	if red.Problem.K != 3 || len(red.Problem.Pool) != 6 {
		t.Fatalf("budget/pool = %d/%d", red.Problem.K, len(red.Problem.Pool))
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(mkInstance(1, nil)); err == nil {
		t.Fatal("1-vertex instance accepted")
	}
	bad := mkInstance(3, nil)
	bad.Adj[0][1] = true
	if _, err := Build(bad); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestVerifyLemma1KnownGraphs(t *testing.T) {
	cases := []*CliqueInstance{
		mkInstance(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}),                         // triangle
		mkInstance(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}),                         // path
		mkInstance(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}), // K4
		mkInstance(4, nil), // edgeless
		mkInstance(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}}), // triangle + edge
	}
	for i, src := range cases {
		clique, oipa, err := VerifyLemma1(src)
		if err != nil {
			t.Fatalf("case %d: %v (clique=%d, oipa=%v)", i, err, clique, oipa)
		}
		// The dominant term of OPT(Πb) is clique/2.
		if math.Abs(2*oipa-float64(clique)) > 1.0/float64(src.N()) {
			t.Fatalf("case %d: 2·OPT(Πb)=%v too far from clique size %d", i, 2*oipa, clique)
		}
	}
}

func TestVerifyLemma1RandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := xrand.New(seed)
		n := 4 + r.Intn(5) // 4..8 vertices
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.45 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		src := mkInstance(n, edges)
		if _, _, err := VerifyLemma1(src); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestOptimalPlanSelectsCliqueXs(t *testing.T) {
	// On a graph whose maximum clique is {0,1,2}, the optimal plan must
	// pick x_0, x_1, x_2 and y_3, y_4 (paper Lemma 1's construction).
	src := mkInstance(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}})
	red, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := red.OptimalUtility()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if plan.Seeds[i][0] != red.X(i) {
			t.Fatalf("piece %d promoted by %d, want x_%d=%d", i, plan.Seeds[i][0], i, red.X(i))
		}
	}
	for i := 3; i < 5; i++ {
		if plan.Seeds[i][0] != red.Y(i) {
			t.Fatalf("piece %d promoted by %d, want y_%d=%d", i, plan.Seeds[i][0], i, red.Y(i))
		}
	}
}

func TestBABSolvesReductionInstance(t *testing.T) {
	// Integration: branch-and-bound on the reduction recovers a plan
	// whose exact utility matches OPT(Πb). The reduction's extreme
	// convexity (adoption ~0 until all n pieces arrive) is a stress test
	// for the hull bound.
	src := mkInstance(4, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	red, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := red.OptimalUtility()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.Prepare(context.Background(), red.Problem, 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), inst, "bab", core.BABOptions{Tolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := red.Utility(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2 promises (1-1/e)·OPT; on this tiny instance BAB should
	// in fact be optimal up to sampling noise in its internal estimates.
	if exact < (1-1/math.E)*opt-1e-9 {
		t.Fatalf("BAB exact utility %v below (1-1/e)·OPT (%v)", exact, opt)
	}
	if exact < 0.95*opt {
		t.Fatalf("BAB exact utility %v noticeably below OPT %v", exact, opt)
	}
}
