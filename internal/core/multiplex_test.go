package core

import (
	"context"
	"testing"

	"oipa/internal/graph"
)

// muxProblem wraps a single-graph problem's graph as a one-layer
// identity multiplex, leaving everything else identical.
func muxProblem(t *testing.T, p *Problem) *Problem {
	t.Helper()
	mx, err := graph.NewMultiplex(p.G.N(), []graph.MultiplexLayer{{G: p.G}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := *p
	q.G = nil
	q.Mux = mx
	return &q
}

// TestPrepareMultiplexSingleLayerBitIdentity is the refactor-safety
// golden at the instance level: a one-identity-layer multiplex prepares
// an instance whose samples AND solver outputs — plans, utilities,
// bounds, baselines — are bit-identical to the single-graph path.
func TestPrepareMultiplexSingleLayerBitIdentity(t *testing.T) {
	p := randomProblem(t, 31, 50, 220, 8, 3, 4)
	q := muxProblem(t, p)
	const theta, seed = 2500, 7
	a, err := Prepare(context.Background(), p, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(context.Background(), q, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Layouts) != b.L() || len(b.Layouts[0]) != q.Mux.L() {
		t.Fatal("multiplex instance did not carry per-layer layouts")
	}
	if a.Theta() != b.Theta() || a.L() != b.L() {
		t.Fatalf("shapes differ: (%d,%d) vs (%d,%d)", a.Theta(), a.L(), b.Theta(), b.L())
	}
	for i := 0; i < a.Theta(); i++ {
		if a.MRR.Root(i) != b.MRR.Root(i) {
			t.Fatalf("root %d differs: %d vs %d", i, a.MRR.Root(i), b.MRR.Root(i))
		}
		for j := 0; j < a.L(); j++ {
			sa, sb := a.MRR.Set(i, j), b.MRR.Set(i, j)
			if len(sa) != len(sb) {
				t.Fatalf("set (%d,%d) sizes %d vs %d", i, j, len(sa), len(sb))
			}
			for k := range sa {
				if sa[k] != sb[k] {
					t.Fatalf("set (%d,%d) diverges at %d", i, j, k)
				}
			}
		}
	}

	type solver struct {
		name string
		run  func(*Instance) (*Result, error)
	}
	solvers := []solver{
		{"BAB", func(in *Instance) (*Result, error) { return SolveBAB(in, BABOptions{Tolerance: 0.01}) }},
		{"BABP", func(in *Instance) (*Result, error) {
			return SolveBABP(in, BABOptions{Epsilon: 0.5, Tolerance: 0.01})
		}},
		{"TIM", SolveTIM},
		{"IM", func(in *Instance) (*Result, error) { return SolveIM(in, 99) }},
	}
	for _, s := range solvers {
		ra, err := s.run(a)
		if err != nil {
			t.Fatalf("%s single: %v", s.name, err)
		}
		rb, err := s.run(b)
		if err != nil {
			t.Fatalf("%s multiplex: %v", s.name, err)
		}
		if ra.Utility != rb.Utility || ra.Upper != rb.Upper {
			t.Fatalf("%s: utility/upper diverge: (%v,%v) vs (%v,%v)", s.name, ra.Utility, ra.Upper, rb.Utility, rb.Upper)
		}
		if len(ra.Plan.Seeds) != len(rb.Plan.Seeds) {
			t.Fatalf("%s: plan piece counts differ", s.name)
		}
		for j := range ra.Plan.Seeds {
			if len(ra.Plan.Seeds[j]) != len(rb.Plan.Seeds[j]) {
				t.Fatalf("%s: piece %d seed counts differ: %v vs %v", s.name, j, ra.Plan.Seeds, rb.Plan.Seeds)
			}
			for x := range ra.Plan.Seeds[j] {
				if ra.Plan.Seeds[j][x] != rb.Plan.Seeds[j][x] {
					t.Fatalf("%s: plans diverge: %v vs %v", s.name, ra.Plan.Seeds, rb.Plan.Seeds)
				}
			}
		}
	}

	// Growth and prefix derivation work identically over the multiplex
	// instance.
	a2, err := a.ExtendTo(context.Background(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := b.ExtendTo(context.Background(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := a2.EstimateAU(Plan{Seeds: [][]int32{{p.Pool[0]}, {p.Pool[1]}, {p.Pool[2]}}})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := b2.EstimateAU(Plan{Seeds: [][]int32{{p.Pool[0]}, {p.Pool[1]}, {p.Pool[2]}}})
	if err != nil {
		t.Fatal(err)
	}
	if ua != ub {
		t.Fatalf("post-growth AU diverges: %v vs %v", ua, ub)
	}
}

// TestPrepareMultiplexTwoLayers exercises a genuinely multi-layer
// prepare end to end: solvers run, budgets are respected, and adding a
// second layer can only add diffusion paths, so BAB's utility must not
// drop below the single-layer utility on the shared layer.
func TestPrepareMultiplexTwoLayers(t *testing.T) {
	p := randomProblem(t, 37, 40, 160, 6, 2, 3)
	extra := randomProblem(t, 41, 40, 160, 6, 2, 3)
	mx, err := graph.NewMultiplex(40, []graph.MultiplexLayer{{G: p.G}, {G: extra.G}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := *p
	q.G = nil
	q.Mux = mx
	single, err := Prepare(context.Background(), p, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Prepare(context.Background(), &q, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SolveBAB(single, BABOptions{Tolerance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := SolveBAB(multi, BABOptions{Tolerance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Plan.Size() > q.K {
		t.Fatalf("plan size %d over budget %d", rm.Plan.Size(), q.K)
	}
	// Lossless coupling: every single-layer diffusion path survives in
	// the multiplex, so the reachable utility can only grow. Allow MRR
	// noise at matched θ.
	if rm.Utility < rs.Utility*0.95 {
		t.Fatalf("multiplex utility %v collapsed below single-layer %v", rm.Utility, rs.Utility)
	}
}
