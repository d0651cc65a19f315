package rrset

// The RR estimator against an oracle that shares no code with it: the
// forward cascade of internal/cascade flips every live out-edge of every
// activated node, with no traverse walker, layout or geometric skip.

import (
	"context"
	"math"
	"slices"
	"testing"

	"oipa/internal/cascade"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/stats"
	"oipa/internal/topic"
)

// TestEstimateAUAgreesWithForwardCascade compares, seed by seed,
// Index.EstimateAU over an RR collection with cascade.EstimateAdoption
// on a random graph and on the bounded-skip fixture, under a gentle and a
// steep logistic model. Over 20 seeds the mean paired difference must lie
// inside its stats.MeanCI half-width at z = 4, and the RR side must come
// out above the forward side on between 4 and 16 seeds (a sign test: each
// tail has probability ~0.6 % for an unbiased pair).
func TestEstimateAUAgreesWithForwardCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-check skipped in -short mode")
	}
	const seeds, theta, runs = 20, 6000, 6000
	random, _ := randomTestGraph(t, 12, 80, 400)
	bounded := boundedGraph(t, 33, 150)
	for _, fx := range []struct {
		name   string
		g      *graph.Graph
		pieces []topic.Vector
		plan   [][]int32
	}{
		{"random", random, []topic.Vector{topic.SingleTopic(0), topic.SingleTopic(1)}, [][]int32{{1, 5, 20}, {9, 20, 33}}},
		{"bounded", bounded, boundedPieces, [][]int32{{3, 40, 77, 101, 140}, {5, 40, 90, 120, 149}}},
	} {
		probs := make([][]float64, len(fx.pieces))
		for j, p := range fx.pieces {
			probs[j] = fx.g.PieceProbs(p)
		}
		layouts := cachedLayouts(t, fx.g, fx.pieces)
		pool := slices.Concat(fx.plan...)
		slices.Sort(pool)
		pool = slices.Compact(pool)
		for _, model := range []logistic.Model{{Alpha: 2, Beta: 1}, {Alpha: 6, Beta: 2}} {
			diff := make([]float64, seeds)
			above := 0
			for s := range diff {
				m, err := SampleMRRLayouts(fx.g, layouts, theta, uint64(200+s))
				if err != nil {
					t.Fatal(err)
				}
				ix, err := m.BuildIndex(pool)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := ix.EstimateAU(fx.plan, model)
				if err != nil {
					t.Fatal(err)
				}
				mc, err := cascade.EstimateAdoption(context.Background(), fx.g, probs, fx.plan, model, runs, uint64(300+s))
				if err != nil {
					t.Fatal(err)
				}
				if diff[s] = rr - mc; diff[s] > 0 {
					above++
				}
			}
			mean, hw := stats.MeanCI(diff, 4)
			if math.Abs(mean) > hw || above < 4 || above > seeds-4 {
				t.Errorf("%s, α %v β %v: RR − forward = %.4f ± %.4f over %d seeds, RR above on %d", fx.name, model.Alpha, model.Beta, mean, hw, seeds, above)
			}
		}
	}
}
