package im

import (
	"math"
	"testing"

	"oipa/internal/cascade"
	"oipa/internal/graph"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// starGraph builds hubs each deterministically covering a disjoint set of
// leaves: hub h (node h) points at its `size` leaves with probability 1.
// Optimal k-cover is the k largest hubs.
// newCollection returns an empty collection sampling g under an explicit
// per-edge probability vector.
func newCollection(g *graph.Graph, probs []float64, seed uint64) (*rrset.Collection, error) {
	lay, err := g.Layout(probs)
	if err != nil {
		return nil, err
	}
	return rrset.NewCollectionLayout(lay, seed), nil
}

func starGraph(t testing.TB, sizes []int) (*graph.Graph, []float64, []int32) {
	t.Helper()
	total := len(sizes)
	for _, s := range sizes {
		total += s
	}
	b := graph.NewBuilder(total, 1)
	leaf := len(sizes)
	hubs := make([]int32, len(sizes))
	for h, s := range sizes {
		hubs[h] = int32(h)
		for i := 0; i < s; i++ {
			if err := b.AddEdge(int32(h), int32(leaf), topic.SingleTopic(0)); err != nil {
				t.Fatal(err)
			}
			leaf++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, g.PieceProbs(topic.SingleTopic(0)), hubs
}

func TestGreedyCoverPicksLargestHubs(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{50, 30, 20, 5, 2})
	c, err := newCollection(g, probs, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.ExtendTo(20000)
	res, err := GreedyCover(c.View(), hubs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("selected %d seeds", len(res.Seeds))
	}
	if res.Seeds[0] != 0 || res.Seeds[1] != 1 {
		t.Fatalf("seeds = %v, want [0 1] (largest hubs)", res.Seeds)
	}
	// Spread estimate ≈ hubs' true reach: 2 hubs + 80 leaves = 82.
	if math.Abs(res.Spread-82) > 3 {
		t.Fatalf("spread = %v, want about 82", res.Spread)
	}
}

func TestGreedyCoverMatchesBruteForceOnTinyInstances(t *testing.T) {
	// Greedy coverage must be within (1-1/e) of the brute-force optimum on
	// random small instances (and usually equal).
	for seed := uint64(0); seed < 15; seed++ {
		r := xrand.New(seed)
		n := 12 + r.Intn(8)
		b := graph.NewBuilder(n, 1)
		added := map[[2]int32]bool{}
		for e := 0; e < 3*n; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v || added[[2]int32{u, v}] {
				continue
			}
			added[[2]int32{u, v}] = true
			p := topic.Vector{Idx: []int32{0}, Val: []float64{0.3 + 0.7*r.Float64()}}
			if err := b.AddEdge(u, v, p); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		probs := g.PieceProbs(topic.SingleTopic(0))
		c, err := newCollection(g, probs, seed)
		if err != nil {
			t.Fatal(err)
		}
		c.ExtendTo(2000)
		candidates := make([]int32, n)
		for i := range candidates {
			candidates[i] = int32(i)
		}
		const k = 3
		res, err := GreedyCover(c.View(), candidates, k)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over all k-subsets.
		best := 0
		var rec func(start int, chosen []int32)
		rec = func(start int, chosen []int32) {
			if len(chosen) == k {
				if cov := c.Coverage(chosen); cov > best {
					best = cov
				}
				return
			}
			for i := start; i < n; i++ {
				rec(i+1, append(chosen, int32(i)))
			}
		}
		rec(0, nil)
		if float64(res.Covered) < (1-1/math.E)*float64(best)-1e-9 {
			t.Fatalf("seed %d: greedy coverage %d below (1-1/e)·OPT (%d)", seed, res.Covered, best)
		}
	}
}

func TestGreedyCoverStopsWhenNothingLeft(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{5, 3})
	c, _ := newCollection(g, probs, 1)
	c.ExtendTo(500)
	// Ask for more seeds than useful candidates: selection stops early.
	res, err := GreedyCover(c.View(), hubs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) > 2 {
		t.Fatalf("selected %d seeds from 2 useful hubs", len(res.Seeds))
	}
}

func TestGreedyCoverValidates(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{2})
	c, _ := newCollection(g, probs, 1)
	c.ExtendTo(10)
	if _, err := GreedyCover(c.View(), hubs, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := GreedyCover(c.View(), nil, 1); err == nil {
		t.Fatal("empty candidates accepted")
	}
	if _, err := GreedyCover(c.View(), []int32{0, 0}, 1); err == nil {
		t.Fatal("duplicate candidates accepted")
	}
	empty, _ := newCollection(g, probs, 1)
	if _, err := GreedyCover(empty.View(), hubs, 1); err == nil {
		t.Fatal("empty collection accepted")
	}
}

func TestIMMFindsOptimalHubs(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{60, 40, 25, 10, 3})
	res, err := IMM(g, probs, hubs, 2, DefaultIMMOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int32]bool{}
	for _, s := range res.Seeds {
		seeds[s] = true
	}
	if !seeds[0] || !seeds[1] {
		t.Fatalf("IMM seeds %v, want the two largest hubs", res.Seeds)
	}
	if res.Theta <= 0 {
		t.Fatal("IMM reported no samples")
	}
	if res.LB <= 0 {
		t.Fatal("IMM lower bound not positive")
	}
}

func TestIMMSpreadNearGroundTruth(t *testing.T) {
	// IMM's seeds on a random graph must achieve forward-simulated spread
	// close to its own estimate (certifying the sampling theory wiring).
	r := xrand.New(33)
	const n = 300
	b := graph.NewBuilder(n, 1)
	added := map[[2]int32]bool{}
	for e := 0; e < 1500; {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || added[[2]int32{u, v}] {
			continue
		}
		added[[2]int32{u, v}] = true
		p := topic.Vector{Idx: []int32{0}, Val: []float64{0.05 + 0.15*r.Float64()}}
		if err := b.AddEdge(u, v, p); err != nil {
			t.Fatal(err)
		}
		e++
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probs := g.PieceProbs(topic.SingleTopic(0))
	candidates := make([]int32, n)
	for i := range candidates {
		candidates[i] = int32(i)
	}
	res, err := IMM(g, probs, candidates, 10, IMMOptions{Epsilon: 0.3, Ell: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := cascade.EstimateSpread(g, probs, res.Seeds, 100000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mc-res.Spread) / mc; rel > 0.1 {
		t.Fatalf("IMM estimate %v vs simulated %v (rel err %v)", res.Spread, mc, rel)
	}
}

func TestIMMBudgetLargerThanPool(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{4, 3})
	res, err := IMM(g, probs, hubs, 10, DefaultIMMOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) > 2 {
		t.Fatalf("selected %d seeds from a pool of 2", len(res.Seeds))
	}
}

func TestIMMValidates(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{2})
	if _, err := IMM(g, probs, hubs, 1, IMMOptions{Epsilon: 0, Ell: 1}); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := IMM(g, probs, hubs, 1, IMMOptions{Epsilon: 0.5, Ell: 0}); err == nil {
		t.Fatal("ell 0 accepted")
	}
	if _, err := IMM(g, probs, hubs, 0, DefaultIMMOptions(1)); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := IMM(g, probs, nil, 1, DefaultIMMOptions(1)); err == nil {
		t.Fatal("empty candidates accepted")
	}
}

func TestIMMMaxThetaCaps(t *testing.T) {
	g, probs, hubs := starGraph(t, []int{30, 20, 10})
	opts := DefaultIMMOptions(4)
	opts.MaxTheta = 500
	res, err := IMM(g, probs, hubs, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta > 500 {
		t.Fatalf("theta %d exceeds cap", res.Theta)
	}
}

func TestLogChoose(t *testing.T) {
	// ln C(5,2) = ln 10.
	if got := logChoose(5, 2); math.Abs(got-math.Log(10)) > 1e-12 {
		t.Fatalf("logChoose(5,2) = %v", got)
	}
	if got := logChoose(10, 0); got != 0 {
		t.Fatalf("logChoose(10,0) = %v", got)
	}
	// Symmetry.
	if math.Abs(logChoose(20, 3)-logChoose(20, 17)) > 1e-9 {
		t.Fatal("logChoose not symmetric")
	}
	if got := logChoose(3, 5); got != 0 {
		t.Fatalf("logChoose(3,5) = %v, want 0", got)
	}
}

func BenchmarkGreedyCover(b *testing.B) {
	g, probs, hubs := starGraph(b, []int{100, 80, 60, 40, 20, 10, 5, 3, 2, 1})
	c, err := newCollection(g, probs, 1)
	if err != nil {
		b.Fatal(err)
	}
	c.ExtendTo(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyCover(c.View(), hubs, 5); err != nil {
			b.Fatal(err)
		}
	}
}
