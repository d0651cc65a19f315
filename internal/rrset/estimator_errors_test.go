package rrset

import (
	"math"
	"testing"

	"oipa/internal/logistic"
)

// TestEstimatorErrorConvention sweeps every estimator entry point — view
// scan, pooled estimator (full and prefix), index exact, index sketch —
// across the degenerate inputs that used to (or could) produce NaN/Inf:
// empty collections, θ = 0 / negative / out-of-range prefixes, malformed
// plans, seeds outside the pool, invalid models, missing sketches. The
// contract, uniform since the PR 4–5 fixes: an error and a finite zero,
// never NaN or Inf. Valid inputs are included as positive controls.
func TestEstimatorErrorConvention(t *testing.T) {
	g, probs := randomTestGraph(t, 3, 60, 300)
	m, err := SampleMRR(g, probs, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	layouts, err := buildLayouts(g, probs)
	if err != nil {
		t.Fatal(err)
	}
	empty := emptyGraphMRR(g, layouts, 9)
	pool := []int32{0, 5, 10, 15, 20, 25}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	six, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := six.AttachSketches(32); err != nil {
		t.Fatal(err)
	}
	emptyIx, err := empty.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := emptyIx.AttachSketches(32); err != nil {
		t.Fatal(err)
	}

	view, emptyView := m.View(), empty.View()
	est, emptyEst := view.NewEstimator(), emptyView.NewEstimator()
	okPlan := [][]int32{{0, 5}, {10, 15}}
	badModel := logistic.Model{Alpha: -1, Beta: 1}

	cases := []struct {
		name    string
		run     func() (float64, error)
		wantErr bool
	}{
		{"scan/ok", func() (float64, error) { return view.EstimateAUScan(okPlan, paperModel) }, false},
		{"scan/empty-collection", func() (float64, error) { return emptyView.EstimateAUScan(okPlan, paperModel) }, true},
		{"scan/plan-length", func() (float64, error) { return view.EstimateAUScan(okPlan[:1], paperModel) }, true},
		{"scan/bad-model", func() (float64, error) { return view.EstimateAUScan(okPlan, badModel) }, true},

		{"estimator/ok", func() (float64, error) { return est.EstimateAU(okPlan, paperModel) }, false},
		{"estimator/empty-collection", func() (float64, error) { return emptyEst.EstimateAU(okPlan, paperModel) }, true},

		{"prefix/ok", func() (float64, error) { return est.EstimateAUPrefix(okPlan, paperModel, 100) }, false},
		{"prefix/theta-zero", func() (float64, error) { return est.EstimateAUPrefix(okPlan, paperModel, 0) }, true},
		{"prefix/theta-negative", func() (float64, error) { return est.EstimateAUPrefix(okPlan, paperModel, -7) }, true},
		{"prefix/theta-beyond", func() (float64, error) { return est.EstimateAUPrefix(okPlan, paperModel, 501) }, true},
		{"prefix/empty-collection", func() (float64, error) { return emptyEst.EstimateAUPrefix(okPlan, paperModel, 1) }, true},

		{"index/ok", func() (float64, error) { return ix.EstimateAU(okPlan, paperModel) }, false},
		{"index/empty-collection", func() (float64, error) { return emptyIx.EstimateAU(okPlan, paperModel) }, true},
		{"index/plan-length", func() (float64, error) { return ix.EstimateAU(okPlan[:1], paperModel) }, true},
		{"index/seed-outside-pool", func() (float64, error) { return ix.EstimateAU([][]int32{{1}, {10}}, paperModel) }, true},
		{"index/bad-model", func() (float64, error) { return ix.EstimateAU(okPlan, badModel) }, true},
		{"index/short-scratch", func() (float64, error) {
			return ix.EstimateAUWith(okPlan, paperModel, NewAUScratch(10))
		}, true},

		{"sketch/ok", func() (float64, error) { return six.EstimateAUSketch(okPlan, paperModel) }, false},
		{"sketch/none-attached", func() (float64, error) { return ix.EstimateAUSketch(okPlan, paperModel) }, true},
		{"sketch/empty-collection", func() (float64, error) { return emptyIx.EstimateAUSketch(okPlan, paperModel) }, true},
		{"sketch/plan-length", func() (float64, error) { return six.EstimateAUSketch(okPlan[:1], paperModel) }, true},
		{"sketch/seed-outside-pool", func() (float64, error) { return six.EstimateAUSketch([][]int32{{1}, {10}}, paperModel) }, true},
		{"sketch/bad-model", func() (float64, error) { return six.EstimateAUSketch(okPlan, badModel) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("returned non-finite value %v", got)
			}
			if tc.wantErr {
				if err == nil {
					t.Fatalf("expected an error, got value %v", got)
				}
				if got != 0 {
					t.Fatalf("error path returned non-zero value %v", got)
				}
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}
