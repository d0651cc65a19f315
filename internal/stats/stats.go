// Package stats provides the summary statistics used by the test suite and
// the experiment harness: means, variances, confidence intervals, quantiles,
// histograms, and a simple power-law tail exponent estimator used to verify
// that the synthetic graphs reproduce the degree structure the paper's
// complexity analysis (Lemma 4) relies on.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if fewer than two
// observations).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanCI returns the mean of xs together with the half-width of a normal
// approximation confidence interval at the given z value (1.96 for 95%).
func MeanCI(xs []float64, z float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, math.Inf(1)
	}
	halfWidth = z * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, halfWidth
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// PowerLawAlpha estimates the tail exponent alpha of a power-law sample
// using the Hill / maximum-likelihood estimator
//
//	alpha = 1 + n / sum(ln(x_i / xmin))
//
// over observations >= xmin (Clauset, Shalizi, Newman 2009, Eq. 3.1). The
// paper's Lemma 4 assumes 2 < alpha < 3 for social influence; the generator
// tests use this estimator to confirm the synthetic degree sequences land
// in a heavy-tailed regime. The estimate is biased slightly upward for
// samples truncated at a finite maximum.
func PowerLawAlpha(xs []float64, xmin float64) (float64, error) {
	if xmin <= 0 {
		return 0, fmt.Errorf("stats: xmin must be positive, got %v", xmin)
	}
	n := 0
	sum := 0.0
	for _, x := range xs {
		if x >= xmin {
			n++
			sum += math.Log(x / xmin)
		}
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	if sum == 0 {
		return math.Inf(1), nil
	}
	return 1 + float64(n)/sum, nil
}

// Histogram builds a fixed-width histogram of xs with the given number of
// bins spanning [min, max]. Out-of-range values clamp into the edge bins.
func Histogram(xs []float64, bins int, min, max float64) ([]int, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: non-positive bin count %d", bins)
	}
	if max <= min {
		return nil, fmt.Errorf("stats: empty range [%v, %v]", min, max)
	}
	h := make([]int, bins)
	width := (max - min) / float64(bins)
	for _, x := range xs {
		b := int((x - min) / width)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		h[b]++
	}
	return h, nil
}

// GiniCoefficient returns the Gini coefficient of the (non-negative)
// sample, a scale-free measure of concentration: 0 means perfectly equal,
// values near 1 mean a few observations dominate. Used to characterize how
// concentrated social influence is in the synthetic datasets.
func GiniCoefficient(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var cum, total float64
	for i, x := range s {
		if x < 0 {
			return 0, fmt.Errorf("stats: negative observation %v", x)
		}
		cum += x * float64(i+1)
		total += x
	}
	n := float64(len(s))
	if total == 0 {
		return 0, nil
	}
	return (2*cum)/(n*total) - (n+1)/n, nil
}

// Welford accumulates a running mean and variance without storing the
// sample (Welford's online algorithm). The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
