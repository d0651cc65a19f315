package cascade

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// paperExample builds the 5-node running example of the paper (Fig. 1).
// Nodes: a=0, b=1, c=2, d=3, e=4.
func paperExample(t testing.TB) (*graph.Graph, [][]float64) {
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
	probs := [][]float64{
		g.PieceProbs(topic.SingleTopic(0)),
		g.PieceProbs(topic.SingleTopic(1)),
	}
	return g, probs
}

var paperModel = logistic.Model{Alpha: 3, Beta: 1}

// spread is σ_im(seeds) of one piece through the one entry point: with
// a single piece every activated user holds one piece, so the utility is
// adopt(1) times the expected number of activated users.
func spread(t testing.TB, g *graph.Graph, probs []float64, seeds []int32, runs int, seed uint64) float64 {
	t.Helper()
	u, err := EstimateAdoption(context.Background(), g, [][]float64{probs}, [][]int32{seeds}, paperModel, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return u / paperModel.Adoption(1)
}

func TestRunDeterministicReach(t *testing.T) {
	g, probs := paperExample(t)
	live := keepLive(g, probs[0])
	out := newWorld(g.N()).run(&live, []int32{0}, *xrand.New(1))
	// Piece t1 from a reaches a, b, c, d but not e (paper Example 1).
	if !slices.Equal(out, []int32{0, 1, 2, 3}) {
		t.Fatalf("t1 from {a} activated %v, want [0 1 2 3]", out)
	}
}

func TestRunDedupesSeeds(t *testing.T) {
	g, probs := paperExample(t)
	live := keepLive(g, probs[0])
	if out := newWorld(g.N()).run(&live, []int32{0, 0, 3, 0}, *xrand.New(1)); !slices.Equal(out, []int32{0, 3, 1, 2}) {
		t.Fatalf("seeds [0 0 3 0] activated %v, want [0 3 1 2]: distinct seeds once, in order, first", out)
	}
}

func TestEstimateSpreadDeterministicGraph(t *testing.T) {
	g, probs := paperExample(t)
	// t2 from e deterministically reaches e, d, c, b.
	if got := spread(t, g, probs[1], []int32{4}, 100, 7); math.Abs(got-4) > 1e-12 {
		t.Fatalf("spread = %v, want 4", got)
	}
}

func TestEstimateSpreadBernoulliEdge(t *testing.T) {
	// Two nodes, one edge with p = 0.3: expected spread from {0} is 1.3.
	b := graph.NewBuilder(2, 1)
	if err := b.AddEdge(0, 1, topic.Vector{Idx: []int32{0}, Val: []float64{0.3}}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := spread(t, g, g.PieceProbs(topic.SingleTopic(0)), []int32{0}, 200000, 42); math.Abs(got-1.3) > 0.01 {
		t.Fatalf("spread = %v, want about 1.3", got)
	}
}

func TestEstimateSpreadDeterministicAcrossParallelism(t *testing.T) {
	g, probs := fractionalGraph(t)
	// Run r draws from a stream derived from (seed, r), so the worlds do
	// not depend on GOMAXPROCS; only the float sum's order does.
	old := runtime.GOMAXPROCS(1)
	serial := spread(t, g, probs[0], []int32{0, 4}, 1000, 99)
	runtime.GOMAXPROCS(old)
	parallel := spread(t, g, probs[0], []int32{0, 4}, 1000, 99)
	if math.Abs(serial-parallel) > 1e-9*serial {
		t.Fatalf("parallel (%v) != serial (%v)", parallel, serial)
	}
	if again := spread(t, g, probs[0], []int32{0, 4}, 1000, 99); again != parallel {
		t.Fatalf("rerun %v != %v", again, parallel)
	}
}

func TestEstimateSpreadErrors(t *testing.T) {
	g, probs := paperExample(t)
	ctx := context.Background()
	if _, err := EstimateAdoption(ctx, g, probs[:1], [][]int32{{0}}, paperModel, 0, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, err := EstimateAdoption(ctx, g, [][]float64{make([]float64, 2)}, [][]int32{{0}}, paperModel, 10, 1); err == nil {
		t.Fatal("wrong probability count accepted")
	}
}

func TestExactAdoptionPaperExample1(t *testing.T) {
	// Paper Example 1: plan {{a}, {e}} has σ = 0.12 + 0.27·3 + 0.12 ≈ 1.05.
	g, probs := paperExample(t)
	plan := [][]int32{{0}, {4}}
	got, err := ExactAdoptionDeterministic(g, probs, plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*paperModel.Adoption(1) + 3*paperModel.Adoption(2) // 1.04523...
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("σ({{a},{e}}) = %v, want %v", got, want)
	}
	if math.Abs(got-1.05) > 0.01 {
		t.Fatalf("σ = %v, paper reports 1.05", got)
	}
}

func TestExactAdoptionPaperExample2(t *testing.T) {
	// Paper Example 2 (non-submodularity): σ({{a},∅}) = σ({∅,{e}}) = 0.48.
	g, probs := paperExample(t)
	s1, err := ExactAdoptionDeterministic(g, probs, [][]int32{{0}, nil}, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ExactAdoptionDeterministic(g, probs, [][]int32{nil, {4}}, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * paperModel.Adoption(1) // 0.4768...
	if math.Abs(s1-want) > 1e-12 || math.Abs(s2-want) > 1e-12 {
		t.Fatalf("single-piece utilities %v, %v, want %v", s1, s2, want)
	}
	// The non-submodularity gap from the paper: δ_{S̄y}(S̄) = 1.05−0.48 =
	// 0.57 > δ_{S̄x}(S̄) = 0.48.
	both, err := ExactAdoptionDeterministic(g, probs, [][]int32{{0}, {4}}, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if gainAfter := both - s1; gainAfter <= s2 {
		t.Fatalf("non-submodularity gap missing: %v <= %v", gainAfter, s2)
	}
}

func TestExactAdoptionRejectsFractionalProbs(t *testing.T) {
	b := graph.NewBuilder(2, 1)
	if err := b.AddEdge(0, 1, topic.Vector{Idx: []int32{0}, Val: []float64{0.5}}); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	probs := [][]float64{g.PieceProbs(topic.SingleTopic(0))}
	if _, err := ExactAdoptionDeterministic(g, probs, [][]int32{{0}}, paperModel); err == nil {
		t.Fatal("fractional probabilities accepted")
	}
}

func TestEstimateAdoptionMatchesExactOnDeterministicGraph(t *testing.T) {
	g, probs := paperExample(t)
	plan := [][]int32{{0}, {4}}
	exact, err := ExactAdoptionDeterministic(g, probs, plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateAdoption(context.Background(), g, probs, plan, paperModel, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 1e-12 {
		t.Fatalf("MC estimate %v != exact %v on deterministic graph", est, exact)
	}
}

func TestEstimateAdoptionEmptyPlanIsZero(t *testing.T) {
	g, probs := paperExample(t)
	got, err := EstimateAdoption(context.Background(), g, probs, [][]int32{nil, nil}, paperModel, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty plan utility = %v, want 0 (Eq. 1 zero branch)", got)
	}
}

func TestEstimateAdoptionMonotone(t *testing.T) {
	// Adding a seed never decreases utility (σ is monotone, §IV-A).
	g, probs := paperExample(t)
	small, err := EstimateAdoption(context.Background(), g, probs, [][]int32{{0}, nil}, paperModel, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	large, err := EstimateAdoption(context.Background(), g, probs, [][]int32{{0}, {4}}, paperModel, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if large < small {
		t.Fatalf("utility decreased when plan grew: %v -> %v", small, large)
	}
}

func TestEstimateAdoptionBernoulli(t *testing.T) {
	// Two nodes u->v with p=0.5 on topic 0 and p=0.5 on topic 1 via a
	// second edge? Simpler: single node pair, two pieces sharing the same
	// edge probability 0.5. Seeding both pieces at u:
	//   u receives both pieces surely: adoption(2).
	//   v receives piece j with prob 0.5 independently:
	//   E[adoption(v)] = 0.25·adopt(2) + 0.5·adopt(1) + 0.25·0.
	b := graph.NewBuilder(2, 2)
	err := b.AddEdge(0, 1, topic.Vector{Idx: []int32{0, 1}, Val: []float64{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probs := [][]float64{
		g.PieceProbs(topic.SingleTopic(0)),
		g.PieceProbs(topic.SingleTopic(1)),
	}
	m := logistic.Model{Alpha: 2, Beta: 1}
	want := m.Adoption(2) + 0.25*m.Adoption(2) + 0.5*m.Adoption(1)
	got, err := EstimateAdoption(context.Background(), g, probs, [][]int32{{0}, {0}}, m, 400000, 123)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("EstimateAdoption = %v, want about %v", got, want)
	}
}

func TestEstimateAdoptionValidates(t *testing.T) {
	g, probs := paperExample(t)
	if _, err := EstimateAdoption(context.Background(), g, probs, [][]int32{{0}}, paperModel, 10, 1); err == nil {
		t.Fatal("plan/piece count mismatch accepted")
	}
	if _, err := EstimateAdoption(context.Background(), g, probs, [][]int32{{0}, {4}}, paperModel, 0, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, err := EstimateAdoption(context.Background(), g, probs, [][]int32{{0}, {4}}, logistic.Model{}, 10, 1); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestEstimateAdoptionDeterministicAcrossParallelism(t *testing.T) {
	g, probs := fractionalGraph(t)
	plan := [][]int32{{0, 9}, {4, 9}}
	old := runtime.GOMAXPROCS(1)
	serial, err := EstimateAdoption(context.Background(), g, probs, plan, paperModel, 200, 5)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EstimateAdoption(context.Background(), g, probs, plan, paperModel, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial-parallel) > 1e-9*serial {
		t.Fatalf("parallel (%v) != serial (%v)", parallel, serial)
	}
}

// TestEstimateAdoptionStopsWhenDone: a done context stops the workers
// between runs, and the call reports the context's error instead of a
// utility, however many runs were asked for.
func TestEstimateAdoptionStopsWhenDone(t *testing.T) {
	g, probs := fractionalGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateAdoption(ctx, g, probs, [][]int32{{0}, {4}}, paperModel, 1<<40, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled estimate returned %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := EstimateAdoption(ctx, g, probs, [][]int32{{0}, {4}}, paperModel, 1<<40, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired estimate returned %v, want context.DeadlineExceeded", err)
	}
}

// TestEstimateAdoptionLayoutsMatchesProbs: the layout forwarder recovers
// each piece's per-edge probabilities from explicit and from pruned
// topic-built layouts, so both give EstimateAdoption's number bit for
// bit.
func TestEstimateAdoptionLayoutsMatchesProbs(t *testing.T) {
	g, probs := fractionalGraph(t)
	pieces := []topic.Vector{topic.SingleTopic(0), {Idx: []int32{1, 2}, Val: []float64{0.5, 0.5}}}
	probs = [][]float64{g.PieceProbs(pieces[0]), g.PieceProbs(pieces[1])}
	plan := [][]int32{{0, 9, 33}, {4, 9}}
	want, err := EstimateAdoption(context.Background(), g, probs, plan, paperModel, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func(int) (*graph.PieceLayout, error){
		func(j int) (*graph.PieceLayout, error) { return g.Layout(probs[j]) },
		func(j int) (*graph.PieceLayout, error) { return g.PieceLayout(pieces[j]) },
	} {
		layouts := make([]*graph.PieceLayout, len(pieces))
		for j := range layouts {
			if layouts[j], err = build(j); err != nil {
				t.Fatal(err)
			}
		}
		got, err := EstimateAdoptionLayouts(g, layouts, plan, paperModel, 500, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("EstimateAdoptionLayouts = %v, EstimateAdoption = %v", got, want)
		}
	}

}

// TestForwardGeoSkipMatchesFlip checks the cascade's edge-by-edge flips
// against the geometric-skip walker in distribution: a reverse walk from
// r over the transpose's layout follows g's out-edges, so its mean size
// is the expected spread of {r} in g. Every source gives all of its
// out-edges one fractional probability, so most of the walk's ranges are
// uniform and long enough to be crossed by geometric jumps.
func TestForwardGeoSkipMatchesFlip(t *testing.T) {
	r := xrand.New(3)
	const n = 500
	b, bt := graph.NewBuilder(n, 1), graph.NewBuilder(n, 1)
	for u := int32(0); u < n; u++ {
		p := 0.02 + 0.1*r.Float64()
		deg := 10 + r.Intn(10)
		seen := map[int32]bool{}
		for d := 0; d < deg; d++ {
			v := int32(r.Intn(n))
			if v == u || seen[v] {
				continue
			}
			seen[v] = true
			if err := b.AddEdge(u, v, topic.FromDense([]float64{p})); err != nil {
				t.Fatal(err)
			}
			if err := bt.AddEdge(v, u, topic.FromDense([]float64{p})); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := bt.Build()
	if err != nil {
		t.Fatal(err)
	}
	piece := topic.SingleTopic(0)
	lay, err := gt.Layout(gt.PieceProbs(piece))
	if err != nil {
		t.Fatal(err)
	}
	off, from, dist, lprobs := lay.Reverse()
	skipped := 0
	for _, d := range dist {
		if d.Uniform > 0 && d.InvLogQ != 0 {
			skipped++
		}
	}
	if skipped < n/2 {
		t.Fatalf("%d of %d ranges take geometric jumps, want at least half", skipped, n)
	}
	probs := g.PieceProbs(piece)
	w := traverse.NewWalker(gt.N())
	const runs = 60000
	for i, root := range []int32{0, 7, 99} {
		total := 0
		for k := 0; k < runs; k++ {
			total += len(w.RunFrom(off, from, dist, lprobs, root, xrand.Derive(uint64(77+i), uint64(k))))
		}
		geo := float64(total) / runs
		flip := spread(t, g, probs, []int32{root}, runs, uint64(78+i))
		if tol := 0.05*flip + 0.3; math.Abs(geo-flip) > tol {
			t.Fatalf("spread of {%d}: geometric-skip walk %.3f vs flips %.3f", root, geo, flip)
		}
	}
}

func BenchmarkRunCascade(b *testing.B) {
	g, probs := benchGraph(b)
	live := keepLive(g, probs)
	wd := newWorld(g.N())
	seeds := []int32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wd.run(&live, seeds, *xrand.Derive(1, uint64(i)))
	}
}

// fractionalGraph is a 60-node graph over three topics whose edges carry
// fractional probabilities, with per-piece probabilities for topics 0
// and 1.
func fractionalGraph(t testing.TB) (*graph.Graph, [][]float64) {
	t.Helper()
	r := xrand.New(5)
	const n = 60
	b := graph.NewBuilder(n, 3)
	seen := map[[2]int32]bool{}
	for b.M() < 300 {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		dense := make([]float64, 3)
		dense[r.Intn(3)] = 0.1 + 0.4*r.Float64()
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, [][]float64{g.PieceProbs(topic.SingleTopic(0)), g.PieceProbs(topic.SingleTopic(1))}
}

func benchGraph(b *testing.B) (*graph.Graph, []float64) {
	b.Helper()
	r := xrand.New(3)
	const n = 5000
	bld := graph.NewBuilder(n, 4)
	seen := map[[2]int32]bool{}
	for bld.M() < 20000 {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		dense := make([]float64, 4)
		dense[r.Intn(4)] = 0.1
		if err := bld.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			b.Fatal(err)
		}
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g, g.PieceProbs(topic.SingleTopic(0))
}
