package main

import (
	"math"

	"oipa/internal/stats"
)

// percentile is the p-th percentile (0..100) of vals by linear
// interpolation between order statistics; NaN for no values.
func percentile(vals []float64, p float64) float64 {
	v, err := stats.Quantile(vals, p/100)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func maxOf(vals []float64) float64 { return percentile(vals, 100) }

func minOf(vals []float64) float64 { return percentile(vals, 0) }

// spread is (max−min)/median of the repetition values: the run-to-run
// band printed next to every median. One value has no spread.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (maxOf(vals) - minOf(vals)) / math.Abs(m)
}

// samplesBeyond counts the samples strictly above the p-th percentile;
// a tail percentile is only reported when at least ten lie beyond it.
func samplesBeyond(vals []float64, p float64) int {
	cut := percentile(vals, p)
	n := 0
	for _, v := range vals {
		if v > cut {
			n++
		}
	}
	return n
}
