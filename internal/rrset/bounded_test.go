package rrset

// The bounded geometric skip (traverse's walk of a long mixed range at
// its largest probability q, thinning each candidate to its own p) is
// checked here against a reference that shares no code with traverse: a
// breadth-first search that flips one coin per in-edge, reading the
// graph's own CSR and the per-edge probability vector, with its own
// generator.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/stats"
	"oipa/internal/topic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// boundedPieces are the pieces the bounded-range tests sample: topic 0
// alone, and a mixture whose probabilities stay under the cutoff too.
var boundedPieces = []topic.Vector{topic.SingleTopic(0), {Idx: []int32{0, 1}, Val: []float64{0.7, 0.3}}}

// boundedGraph builds a graph whose in-ranges are long, skewed and mixed:
// node v has 10–40 in-edges, one at a largest probability q_v just under
// or well under traverse.GeoSkipMaxQ, the rest at q_v·U² (many of them
// tiny), and one in five carries topic 1 only, so it is a zero that an
// explicit layout of topic 0 stores.
func boundedGraph(t testing.TB, seed uint64, n int) *graph.Graph {
	t.Helper()
	r := xrand.New(seed)
	b := graph.NewBuilder(n, 2)
	qs := []float64{0.9 * traverse.GeoSkipMaxQ, 0.6 * traverse.GeoSkipMaxQ, 0.1 * traverse.GeoSkipMaxQ}
	for v := 0; v < n; v++ {
		q := qs[v%len(qs)]
		deg := 10 + r.Intn(31)
		for i, u := range r.Sample(n, deg) {
			if u == v {
				continue
			}
			dense := []float64{q * math.Pow(r.Float64(), 2), 0.5 * q * r.Float64()}
			switch {
			case i == 0:
				dense[0] = q
			case r.Intn(5) == 0:
				dense[0] = 0
			}
			if err := b.AddEdge(int32(u), int32(v), topic.FromDense(dense)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// flipBFS is the reference RR walk: from root, every in-edge of every
// reached node is live with probability probs[edge id], one coin each.
// It appends the reached nodes to out (root first) and returns it.
func flipBFS(g *graph.Graph, probs []float64, root int32, rng *rand.Rand, seen []bool, out []int32) []int32 {
	start := len(out)
	out = append(out, root)
	seen[root] = true
	for head := start; head < len(out); head++ {
		from, edges := g.InNeighbors(out[head])
		for i, u := range from {
			if rng.Float64() < probs[edges[i]] && !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	for _, v := range out[start:] {
		seen[v] = false
	}
	return out
}

// boundedExpansions counts the nodes of sets whose in-range in lay's
// reverse walk view is walked by the bounded skip: every node a walk
// reaches is expanded, so a positive count means the case ran.
func boundedExpansions(lay *graph.PieceLayout, sets func(yield func([]int32))) int {
	off, _, dist, _ := lay.Reverse()
	count := 0
	sets(func(set []int32) {
		for _, v := range set {
			d := dist[v]
			if d.Uniform < 0 && -d.Uniform < traverse.GeoSkipMaxQ && off[v+1]-off[v] > traverse.GeoSkipMinDeg {
				count++
			}
		}
	})
	return count
}

// TestBoundedSkipInclusionMatchesFlipBFS compares, for a few roots, how
// often each node lands in the root's RR set under the walker (over the
// explicit layout's walk view) and under the reference flip BFS: every
// per-node frequency difference must lie inside the two frequencies'
// combined stats.MeanCI half-widths at z = 4.5.
func TestBoundedSkipInclusionMatchesFlipBFS(t *testing.T) {
	const n = 120
	walks := 40_000
	if testing.Short() {
		walks = 10_000
	}
	g := boundedGraph(t, 31, n)
	probs := g.PieceProbs(boundedPieces[0])
	lay, err := g.Layout(probs)
	if err != nil {
		t.Fatal(err)
	}
	off, from, dist, lprobs := lay.Reverse()
	w := traverse.NewWalker(n)
	ref := rand.New(rand.NewSource(5))
	seen := make([]bool, n)
	var buf []int32
	for _, root := range []int32{0, 1, 2, 57} {
		walker, flip := make([][]float64, n), make([][]float64, n)
		for v := range walker {
			walker[v], flip[v] = make([]float64, walks), make([]float64, walks)
		}
		bounded := 0
		for i := 0; i < walks; i++ {
			set := w.RunFrom(off, from, dist, lprobs, root, xrand.Derive(uint64(root), uint64(i)))
			bounded += boundedExpansions(lay, func(yield func([]int32)) { yield(set) })
			for _, v := range set {
				walker[v][i] = 1
			}
			buf = flipBFS(g, probs, root, ref, seen, buf[:0])
			for _, v := range buf {
				flip[v][i] = 1
			}
		}
		if bounded == 0 {
			t.Fatalf("root %d: no walk expanded a bounded range", root)
		}
		reached := 0
		for v := 0; v < n; v++ {
			fw, hw := stats.MeanCI(walker[v], 4.5)
			ff, hf := stats.MeanCI(flip[v], 4.5)
			if fw > 0 || ff > 0 {
				reached++
			}
			if math.Abs(fw-ff) > math.Hypot(hw, hf) {
				t.Fatalf("root %d node %d: walker includes it in %.5f of sets, flip BFS in %.5f (allowed ±%.5f)", root, v, fw, ff, math.Hypot(hw, hf))
			}
		}
		if reached < n/4 {
			t.Fatalf("root %d: only %d of %d nodes ever reached; the check is too weak", root, reached, n)
		}
	}
}

// TestBoundedSkipEstimateAUMatchesFlipBFS compares Index.EstimateAU over
// walker-sampled collections (one per seed) with the same estimator
// computed from reference flip-BFS samples: the two 24-seed means must
// agree within their combined stats.MeanCI half-widths at z = 4.
func TestBoundedSkipEstimateAUMatchesFlipBFS(t *testing.T) {
	const n, seeds = 150, 24
	theta := 4000
	if testing.Short() {
		theta = 1500
	}
	g := boundedGraph(t, 32, n)
	probs := make([][]float64, len(boundedPieces))
	for j, p := range boundedPieces {
		probs[j] = g.PieceProbs(p)
	}
	layouts := explicitLayouts(t, g, boundedPieces)
	model := logistic.Model{Alpha: 3, Beta: 1}
	plan := [][]int32{{3, 40, 77, 101, 140}, {5, 40, 90, 120, 149}}
	pool := append(slices.Clone(plan[0]), plan[1]...)
	slices.Sort(pool)
	pool = slices.Compact(pool)

	walker, flip := make([]float64, seeds), make([]float64, seeds)
	bounded := 0
	ref := rand.New(rand.NewSource(7))
	seen := make([]bool, n)
	var set []int32
	for s := 0; s < seeds; s++ {
		m, err := SampleMRRLayouts(g, layouts, theta, uint64(100+s))
		if err != nil {
			t.Fatal(err)
		}
		for j, lay := range layouts {
			bounded += boundedExpansions(lay, func(yield func([]int32)) {
				for i := 0; i < m.Theta(); i++ {
					yield(m.Set(i, j))
				}
			})
		}
		ix, err := m.BuildIndex(pool)
		if err != nil {
			t.Fatal(err)
		}
		if walker[s], err = ix.EstimateAU(plan, model); err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for i := 0; i < theta; i++ {
			root := int32(ref.Intn(n))
			count := 0
			for j := range plan {
				set = flipBFS(g, probs[j], root, ref, seen, set[:0])
				if slices.ContainsFunc(set, func(v int32) bool { return slices.Contains(plan[j], v) }) {
					count++
				}
			}
			total += model.Adoption(count)
		}
		flip[s] = float64(n) * total / float64(theta)
	}
	if bounded == 0 {
		t.Fatal("no sample expanded a bounded range")
	}
	mw, hw := stats.MeanCI(walker, 4)
	mf, hf := stats.MeanCI(flip, 4)
	if math.Abs(mw-mf) > math.Hypot(hw, hf) {
		t.Fatalf("EstimateAU: walker %.4f ± %.4f, flip BFS %.4f ± %.4f over %d seeds", mw, hw, mf, hf, seeds)
	}
}
