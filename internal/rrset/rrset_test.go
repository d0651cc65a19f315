package rrset

import (
	"math"
	"runtime"
	"testing"

	"oipa/internal/cascade"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// paperExample builds the paper's 5-node running example (Fig. 1).
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
	return g, [][]float64{
		g.PieceProbs(topic.SingleTopic(0)),
		g.PieceProbs(topic.SingleTopic(1)),
	}
}

var paperModel = logistic.Model{Alpha: 3, Beta: 1}

// newCollectionProbs returns an empty one-piece (ℓ = 1) collection
// sampling g under an explicit per-edge probability vector.
func newCollectionProbs(g *graph.Graph, probs []float64, seed uint64) (*MRRCollection, error) {
	lay, err := g.Layout(probs)
	if err != nil {
		return nil, err
	}
	return newCollection1(lay, seed), nil
}

// newCollection1 returns an empty one-piece collection over one layout.
func newCollection1(lay *graph.PieceLayout, seed uint64) *MRRCollection {
	return emptyGraphMRR(lay.Graph(), []*graph.PieceLayout{lay}, seed)
}

// extend grows c to theta samples, failing the test on error.
func extend(tb testing.TB, c *MRRCollection, theta int) {
	tb.Helper()
	if err := c.ExtendTo(theta); err != nil {
		tb.Fatal(err)
	}
}

// setReader is the read side MRRCollection and MRRView share.
type setReader interface {
	N() int
	Theta() int
	Set(i, j int) []int32
}

// coverage counts the samples whose piece-0 RR set holds any of seeds,
// by a linear scan; ids outside the graph never match.
func coverage(c setReader, seeds []int32) int {
	mark := make([]bool, c.N())
	for _, v := range seeds {
		if v >= 0 && int(v) < c.N() {
			mark[v] = true
		}
	}
	covered := 0
	for i := 0; i < c.Theta(); i++ {
		for _, v := range c.Set(i, 0) {
			if mark[v] {
				covered++
				break
			}
		}
	}
	return covered
}

// spread estimates σ_im(seeds) = n · coverage / θ from the piece-0 sets:
// 0 over an empty collection, never NaN.
func spread(c setReader, seeds []int32) float64 {
	if c.Theta() == 0 {
		return 0
	}
	return float64(c.N()) * float64(coverage(c, seeds)) / float64(c.Theta())
}

// emptyGraphMRR returns an empty one-graph collection over per-piece
// layouts.
func emptyGraphMRR(g *graph.Graph, layouts []*graph.PieceLayout, seed uint64) *MRRCollection {
	m, err := NewMRRCollection(g, nil, OneLayer(layouts), seed)
	if err != nil {
		panic(err)
	}
	return m
}

// randomTestGraph builds a random graph with fractional probabilities for
// statistical tests.
func randomTestGraph(t testing.TB, seed uint64, n, m int) (*graph.Graph, [][]float64) {
	t.Helper()
	r := xrand.New(seed)
	b := graph.NewBuilder(n, 3)
	seen := map[[2]int32]bool{}
	for b.M() < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		dense := make([]float64, 3)
		dense[r.Intn(3)] = 0.1 + 0.4*r.Float64()
		if r.Intn(3) == 0 {
			dense[r.Intn(3)] = 0.1 + 0.3*r.Float64()
		}
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, [][]float64{
		g.PieceProbs(topic.SingleTopic(0)),
		g.PieceProbs(topic.SingleTopic(1)),
	}
}

func TestCollectionDeterministicSets(t *testing.T) {
	g, probs := paperExample(t)
	c, err := newCollectionProbs(g, probs[0], 42)
	if err != nil {
		t.Fatal(err)
	}
	extend(t, c, 50)
	if c.Theta() != 50 {
		t.Fatalf("Theta = %d", c.Theta())
	}
	// Deterministic graph: the RR set of root r under piece t1 is exactly
	// the ancestors of r in the t1 chain a->b->c->d.
	want := map[int32][]int32{
		0: {0},
		1: {1, 0},
		2: {2, 1, 0},
		3: {3, 2, 1, 0},
		4: {4},
	}
	for i := 0; i < c.Theta(); i++ {
		root := c.Root(i)
		set := c.Set(i, 0)
		exp := want[root]
		if len(set) != len(exp) {
			t.Fatalf("set %d (root %d) = %v, want %v", i, root, set, exp)
		}
		got := map[int32]bool{}
		for _, v := range set {
			got[v] = true
		}
		for _, v := range exp {
			if !got[v] {
				t.Fatalf("set %d (root %d) missing %d", i, root, v)
			}
		}
	}
}

func TestCollectionExtendIsIncremental(t *testing.T) {
	g, probs := randomTestGraph(t, 5, 40, 150)
	a, _ := newCollectionProbs(g, probs[0], 9)
	extend(t, a, 200)
	b, _ := newCollectionProbs(g, probs[0], 9)
	extend(t, b, 50)
	extend(t, b, 200) // grown in two steps
	if a.Theta() != b.Theta() {
		t.Fatal("theta mismatch")
	}
	for i := 0; i < a.Theta(); i++ {
		sa, sb := a.Set(i, 0), b.Set(i, 0)
		if len(sa) != len(sb) {
			t.Fatalf("set %d sizes differ: %d vs %d", i, len(sa), len(sb))
		}
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("set %d differs at %d", i, k)
			}
		}
	}
	// ExtendTo with smaller theta is a no-op.
	extend(t, b, 10)
	if b.Theta() != 200 {
		t.Fatal("shrinking ExtendTo changed the collection")
	}
}

func TestCollectionParallelMatchesSerial(t *testing.T) {
	g, probs := randomTestGraph(t, 6, 60, 240)
	old := runtime.GOMAXPROCS(1)
	serial, _ := newCollectionProbs(g, probs[0], 3)
	extend(t, serial, 500)
	runtime.GOMAXPROCS(old)
	parallel, _ := newCollectionProbs(g, probs[0], 3)
	extend(t, parallel, 500)
	if serial.TotalSize() != parallel.TotalSize() {
		t.Fatalf("total sizes differ: %d vs %d", serial.TotalSize(), parallel.TotalSize())
	}
	for i := 0; i < 500; i++ {
		sa, sb := serial.Set(i, 0), parallel.Set(i, 0)
		if len(sa) != len(sb) {
			t.Fatalf("set %d sizes differ", i)
		}
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("set %d differs at position %d", i, k)
			}
		}
	}
}

func TestEstimateSpreadUnbiased(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-check skipped in -short mode")
	}
	// RR-based spread estimates must agree with forward Monte Carlo.
	g, probs := randomTestGraph(t, 7, 50, 200)
	seeds := []int32{0, 7, 23}
	c, _ := newCollectionProbs(g, probs[0], 11)
	extend(t, c, 200000)
	rrEst := spread(c, seeds)
	mcEst, err := cascade.EstimateSpread(g, probs[0], seeds, 200000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rrEst-mcEst) / mcEst; rel > 0.03 {
		t.Fatalf("RR estimate %v vs MC estimate %v (rel err %v)", rrEst, mcEst, rel)
	}
}

func TestNewCollectionValidates(t *testing.T) {
	g, _ := paperExample(t)
	if _, err := NewMRRCollection(g, nil, [][]*graph.PieceLayout{{nil}}, 0); err == nil {
		t.Fatal("nil layout accepted")
	}
	if _, err := NewMRRCollection(nil, nil, [][]*graph.PieceLayout{{nil}}, 0); err == nil {
		t.Fatal("neither graph nor multiplex accepted")
	}
}

func TestSampleMRRValidates(t *testing.T) {
	g, probs := paperExample(t)
	if _, err := SampleMRR(g, nil, 10, 1); err == nil {
		t.Fatal("no pieces accepted")
	}
	if _, err := SampleMRR(g, probs, 0, 1); err == nil {
		t.Fatal("zero theta accepted")
	}
	if _, err := SampleMRR(g, [][]float64{{0.5}}, 10, 1); err == nil {
		t.Fatal("wrong probability length accepted")
	}
	if _, err := SampleMRRWithRoots(g, probs, nil, 1); err == nil {
		t.Fatal("no roots accepted")
	}
	if _, err := SampleMRRWithRoots(g, probs, []int32{99}, 1); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestMRRPaperTableII(t *testing.T) {
	// Table II of the paper: roots c, a, b, c with deterministic edges.
	//   R1 (root c): R^1 = {c,b,a},   R^2 = {c,d,e}
	//   R2 (root a): R^1 = {a},       R^2 = {a}
	//   R3 (root b): R^1 = {b,a},     R^2 = {b,c,d,e}
	//   R4 (root c): same as R1.
	// AU estimate of {{a},{e}} = 5/4 · (0.27+0.12+0.27+0.27) ≈ 1.16.
	g, probs := paperExample(t)
	m, err := SampleMRRWithRoots(g, probs, []int32{2, 0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSets := [][2][]int32{
		{{2, 1, 0}, {2, 3, 4}},
		{{0}, {0}},
		{{1, 0}, {1, 2, 3, 4}},
		{{2, 1, 0}, {2, 3, 4}},
	}
	for i, pair := range wantSets {
		for j := 0; j < 2; j++ {
			got := m.Set(i, j)
			want := pair[j]
			if len(got) != len(want) {
				t.Fatalf("sample %d piece %d = %v, want %v", i, j, got, want)
			}
			set := map[int32]bool{}
			for _, v := range got {
				set[v] = true
			}
			for _, v := range want {
				if !set[v] {
					t.Fatalf("sample %d piece %d missing %d", i, j, v)
				}
			}
		}
	}
	got, err := m.EstimateAUScan([][]int32{{0}, {4}}, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 / 4.0 * (3*paperModel.Adoption(2) + paperModel.Adoption(1))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AU estimate = %v, want %v", got, want)
	}
	if math.Abs(got-1.16) > 0.01 {
		t.Fatalf("AU estimate = %v, paper reports 1.16", got)
	}
}

func TestMRRParallelMatchesSerial(t *testing.T) {
	g, probs := randomTestGraph(t, 8, 50, 200)
	old := runtime.GOMAXPROCS(1)
	serial, err := SampleMRR(g, probs, 400, 21)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SampleMRR(g, probs, 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalSize() != parallel.TotalSize() {
		t.Fatalf("total sizes differ: %d vs %d", serial.TotalSize(), parallel.TotalSize())
	}
	for i := 0; i < 400; i++ {
		for j := 0; j < 2; j++ {
			sa, sb := serial.Set(i, j), parallel.Set(i, j)
			if len(sa) != len(sb) {
				t.Fatalf("sample %d piece %d sizes differ", i, j)
			}
			for k := range sa {
				if sa[k] != sb[k] {
					t.Fatalf("sample %d piece %d differs", i, j)
				}
			}
		}
	}
}

func TestMRRRootsMatchSampleMRRWithRoots(t *testing.T) {
	// SampleMRR and SampleMRRWithRoots(given the same roots and seed)
	// produce identical sets: the root-draw burn keeps streams aligned.
	g, probs := randomTestGraph(t, 9, 40, 160)
	a, err := SampleMRR(g, probs, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]int32, a.Theta())
	for i := range roots {
		roots[i] = a.Root(i)
	}
	b, err := SampleMRRWithRoots(g, probs, roots, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Theta(); i++ {
		for j := 0; j < a.L(); j++ {
			sa, sb := a.Set(i, j), b.Set(i, j)
			if len(sa) != len(sb) {
				t.Fatalf("sample %d piece %d sizes differ", i, j)
			}
			for k := range sa {
				if sa[k] != sb[k] {
					t.Fatalf("sample %d piece %d content differs", i, j)
				}
			}
		}
	}
}

func TestEstimateAUScanUnbiased(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-check skipped in -short mode")
	}
	// The MRR estimator must agree with the forward Monte-Carlo adoption
	// estimate (the package's ground truth).
	g, probs := randomTestGraph(t, 10, 60, 250)
	plan := [][]int32{{1, 5}, {9}}
	m, err := SampleMRR(g, probs, 300000, 17)
	if err != nil {
		t.Fatal(err)
	}
	rrEst, err := m.EstimateAUScan(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	mcEst, err := cascade.EstimateAdoption(g, probs, plan, paperModel, 300000, 19)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(rrEst - mcEst); diff > 0.02*float64(g.N())/10 {
		t.Fatalf("MRR estimate %v vs MC estimate %v", rrEst, mcEst)
	}
}

func TestEstimateAUScanValidates(t *testing.T) {
	g, probs := paperExample(t)
	m, err := SampleMRR(g, probs, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstimateAUScan([][]int32{{0}}, paperModel); err == nil {
		t.Fatal("plan length mismatch accepted")
	}
	if _, err := m.EstimateAUScan([][]int32{{0}, {4}}, logistic.Model{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestEstimateAUScanEmptyPlanZero(t *testing.T) {
	g, probs := paperExample(t)
	m, err := SampleMRR(g, probs, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EstimateAUScan([][]int32{nil, nil}, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty plan AU = %v, want 0", got)
	}
}

func BenchmarkSampleMRR(b *testing.B) {
	g, probs := randomTestGraph(b, 3, 2000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleMRR(g, probs, 10000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
