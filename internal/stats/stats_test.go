package stats

import (
	"math"
	"testing"
	"testing/quick"

	"oipa/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestMeanCIShrinks(t *testing.T) {
	r := xrand.New(3)
	small := make([]float64, 50)
	large := make([]float64, 5000)
	for i := range small {
		small[i] = r.NormFloat64()
	}
	for i := range large {
		large[i] = r.NormFloat64()
	}
	_, hwSmall := MeanCI(small, 1.96)
	_, hwLarge := MeanCI(large, 1.96)
	if hwLarge >= hwSmall {
		t.Fatalf("CI half-width did not shrink with sample size: %v vs %v", hwLarge, hwSmall)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("Quantile(nil) did not error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("Quantile(q>1) did not error")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got, _ := Min(xs); got != -1 {
		t.Fatalf("Min = %v", got)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("Min(nil) did not return ErrEmpty")
	}
}

func TestPowerLawAlphaRecovers(t *testing.T) {
	// Draw from a known power law and check the MLE recovers the exponent.
	r := xrand.New(42)
	for _, alpha := range []float64{2.2, 2.5, 2.9} {
		xs := make([]float64, 30000)
		for i := range xs {
			xs[i] = r.PowerLaw(1, 1e9, alpha)
		}
		got, err := PowerLawAlpha(xs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-alpha) > 0.15 {
			t.Fatalf("alpha estimate %v too far from true %v", got, alpha)
		}
	}
}

func TestPowerLawAlphaErrors(t *testing.T) {
	if _, err := PowerLawAlpha([]float64{1, 2}, 0); err == nil {
		t.Fatal("xmin=0 did not error")
	}
	if _, err := PowerLawAlpha([]float64{1, 2}, 100); err != ErrEmpty {
		t.Fatal("no observations above xmin did not return ErrEmpty")
	}
}

func TestHistogram(t *testing.T) {
	h, err := Histogram([]float64{0.1, 0.2, 0.9, -5, 10}, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 3 || h[1] != 2 {
		t.Fatalf("Histogram = %v, want [3 2]", h)
	}
	if _, err := Histogram(nil, 0, 0, 1); err == nil {
		t.Fatal("zero bins did not error")
	}
	if _, err := Histogram(nil, 2, 1, 1); err == nil {
		t.Fatal("empty range did not error")
	}
}

func TestGini(t *testing.T) {
	// Perfect equality.
	g, err := GiniCoefficient([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(g, 0, 1e-12) {
		t.Fatalf("Gini of equal sample = %v, want 0", g)
	}
	// Total concentration in one element of n: Gini = (n-1)/n.
	g, err = GiniCoefficient([]float64{0, 0, 0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(g, 0.75, 1e-12) {
		t.Fatalf("Gini of concentrated sample = %v, want 0.75", g)
	}
	if _, err := GiniCoefficient([]float64{-1}); err == nil {
		t.Fatal("negative observation did not error")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(200)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			w.Add(xs[i])
		}
		return w.N() == n &&
			almostEqual(w.Mean(), Mean(xs), 1e-9) &&
			almostEqual(w.Variance(), Variance(xs), 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGiniMonotoneInConcentration(t *testing.T) {
	// Moving mass from a poor element to a rich one must not decrease Gini.
	base := []float64{1, 2, 3, 4}
	concentrated := []float64{0.5, 2, 3, 4.5}
	g1, _ := GiniCoefficient(base)
	g2, _ := GiniCoefficient(concentrated)
	if g2 < g1 {
		t.Fatalf("Gini decreased after concentration: %v -> %v", g1, g2)
	}
}
