package rrset

import (
	"testing"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// muxTestLayouts builds the per-piece per-layer layouts the multiplex
// sampler consumes for the two single-topic pieces the rrset tests use.
func muxTestLayouts(t *testing.T, mx *graph.Multiplex) [][]*graph.PieceLayout {
	t.Helper()
	pieces := []topic.Vector{topic.SingleTopic(0), topic.SingleTopic(1)}
	layouts := make([][]*graph.PieceLayout, len(pieces))
	for j, p := range pieces {
		lays, err := mx.Layouts(p)
		if err != nil {
			t.Fatal(err)
		}
		layouts[j] = lays
	}
	return layouts
}

// TestMultiplexSingleLayerBitIdentity is the refactor-safety golden at
// the sampler level: a multiplex with one identity-mapped layer must
// produce bit-identical samples — roots, set contents, set order — to
// the single-graph path over that layer's graph, through both the
// initial sampling pass and a later extension.
func TestMultiplexSingleLayerBitIdentity(t *testing.T) {
	g, probs := randomTestGraph(t, 7, 50, 260)
	single, err := SampleMRR(g, probs, 240, 11)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := graph.NewMultiplex(g.N(), []graph.MultiplexLayer{{G: g}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := SampleMRRMultiplexLayouts(mx, muxTestLayouts(t, mx), 240, 11)
	if err != nil {
		t.Fatal(err)
	}
	compareCollections(t, single, mux, "initial")

	if err := single.ExtendTo(420); err != nil {
		t.Fatal(err)
	}
	if err := mux.ExtendTo(420); err != nil {
		t.Fatal(err)
	}
	compareCollections(t, single, mux, "extended")

	// Estimates flow through the same storage, so spread and AU agree
	// exactly as well.
	plan := [][]int32{{1, 5, 9}, {2, 30}}
	model := logistic.Model{Alpha: 3, Beta: 1}
	a, err := single.EstimateAUScan(plan, model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.EstimateAUScan(plan, model)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("AU diverged: single %v, multiplex %v", a, b)
	}
}

func compareCollections(t *testing.T, a, b *MRRCollection, stage string) {
	t.Helper()
	if a.Theta() != b.Theta() || a.L() != b.L() || a.N() != b.N() {
		t.Fatalf("%s: shape mismatch: (%d,%d,%d) vs (%d,%d,%d)", stage, a.Theta(), a.L(), a.N(), b.Theta(), b.L(), b.N())
	}
	for i := 0; i < a.Theta(); i++ {
		if a.Root(i) != b.Root(i) {
			t.Fatalf("%s: root %d: %d vs %d", stage, i, a.Root(i), b.Root(i))
		}
		for j := 0; j < a.L(); j++ {
			sa, sb := a.Set(i, j), b.Set(i, j)
			if len(sa) != len(sb) {
				t.Fatalf("%s: set (%d,%d) sizes %d vs %d", stage, i, j, len(sa), len(sb))
			}
			for k := range sa {
				if sa[k] != sb[k] {
					t.Fatalf("%s: set (%d,%d) diverges at %d: %d vs %d", stage, i, j, k, sa[k], sb[k])
				}
			}
		}
	}
}

// TestMultiplexSamplesMatchCombinedReduction replays every multiplex
// sample through the explicit gateway-node combined graph: deriving the
// same per-sample RNG and walking the combined reduction with the plain
// Walker must reproduce each stored set verbatim (after filtering the
// walk to universe nodes). This pins the sampler's coupling — not just
// the walker's — including root derivation and per-piece RNG threading.
func TestMultiplexSamplesMatchCombinedReduction(t *testing.T) {
	l0, _ := randomTestGraph(t, 3, 36, 170)
	l1, _ := randomTestGraph(t, 4, 24, 120)
	perm := xrand.New(99).Sample(36, 24)
	toGlobal := make([]int32, len(perm))
	for i, u := range perm {
		toGlobal[i] = int32(u)
	}
	mx, err := graph.NewMultiplex(36, []graph.MultiplexLayer{
		{G: l0},
		{G: l1, ToGlobal: toGlobal},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const theta, seed = 120, 5
	m, err := SampleMRRMultiplexLayouts(mx, muxTestLayouts(t, mx), theta, seed)
	if err != nil {
		t.Fatal(err)
	}

	comb, err := mx.CombinedGraph()
	if err != nil {
		t.Fatal(err)
	}
	pieces := []topic.Vector{topic.SingleTopic(0), topic.SingleTopic(1)}
	combLays := make([]*graph.PieceLayout, len(pieces))
	for j, p := range pieces {
		lay, err := comb.Layout(comb.PieceProbs(p))
		if err != nil {
			t.Fatal(err)
		}
		combLays[j] = lay
	}
	inOff, inFrom := comb.InCSR()
	w := traverse.NewWalker(comb.N())
	n := uint64(mx.N())
	for i := 0; i < theta; i++ {
		rng := xrand.Derive(seed, uint64(i))
		root := int32(rng.Uint64n(n))
		if root != m.Root(i) {
			t.Fatalf("sample %d: root %d, collection stored %d", i, root, m.Root(i))
		}
		for j := range pieces {
			visited := w.RunFrom(inOff, inFrom, combLays[j].InDist, combLays[j].InProbs, root, rng)
			var want []int32
			for _, v := range visited {
				if int(v) < mx.N() {
					want = append(want, v)
				}
			}
			got := m.Set(i, j)
			if len(got) != len(want) {
				t.Fatalf("sample %d piece %d: reduction set size %d, multiplex %d", i, j, len(want), len(got))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("sample %d piece %d diverges at %d: reduction %d, multiplex %d", i, j, k, want[k], got[k])
				}
			}
		}
	}

	// The collection behaves like any other downstream: indexes answer
	// exactly what the scan answers.
	pool := []int32{0, 3, 7, 11, 19, 25, 33}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	model := logistic.Model{Alpha: 3, Beta: 1}
	plans := [][][]int32{
		{{3, 19}, {7}},
		{{0}, {11, 25, 33}},
	}
	for _, plan := range plans {
		want, err := m.EstimateAUScan(plan, model)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.EstimateAU(plan, model)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("index AU %v, scan AU %v", got, want)
		}
	}
}
