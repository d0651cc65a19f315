// Package oipa_bench regenerates every table and figure of the paper's
// evaluation (§VI) as Go benchmarks, plus the ablations called out in
// DESIGN.md §5. Each benchmark runs a figure's workload at smoke scale so
// `go test -bench=.` completes on a laptop; cmd/oipa-exp runs the same
// sweeps at full scale with text output.
//
// Mapping (see DESIGN.md §4):
//
//	Table III  -> BenchmarkTableIII_SampleTime
//	Figure 3   -> BenchmarkFigure3_EpsilonSweep
//	Figure 4   -> BenchmarkFigure4_VaryK
//	Figure 5   -> BenchmarkFigure5_VaryL
//	Figure 6   -> BenchmarkFigure6_VaryBetaAlpha
//	§VI-C      -> BenchmarkSpeedup_BABvsBABP
//	Ablations  -> BenchmarkAblation_*
package oipa_bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"oipa/internal/core"
	"oipa/internal/exp"
	"oipa/internal/gen"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
)

// sharedWorkload caches one small workload per preset so benchmarks do
// not pay dataset generation repeatedly.
var (
	workloadOnce sync.Once
	workloads    map[gen.Preset]*exp.Workload
)

func getWorkload(b *testing.B, p gen.Preset) *exp.Workload {
	b.Helper()
	workloadOnce.Do(func() {
		workloads = map[gen.Preset]*exp.Workload{}
		for _, preset := range gen.Presets {
			cfg := exp.SmallConfig(preset)
			w, err := exp.BuildWorkload(cfg)
			if err != nil {
				panic(err)
			}
			workloads[preset] = w
		}
	})
	w, ok := workloads[p]
	if !ok {
		b.Fatalf("no workload for preset %s", p)
	}
	return w
}

// pieceProbs materializes the workload campaign's edge-id-ordered
// probability vectors, the input rrset.SampleMRR takes.
func pieceProbs(w *exp.Workload) [][]float64 {
	probs := make([][]float64, w.Campaign.L())
	for j, piece := range w.Campaign.Pieces {
		probs[j] = w.Dataset.G.PieceProbs(piece.Dist)
	}
	return probs
}

// BenchmarkTableIII_SampleTime measures MRR sampling throughput per
// dataset — the "Sample Time" row of Table III.
func BenchmarkTableIII_SampleTime(b *testing.B) {
	for _, preset := range gen.Presets {
		w := getWorkload(b, preset)
		probs := pieceProbs(w)
		b.Run(string(preset), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := rrset.SampleMRR(w.Dataset.G, probs,
					w.Config.Theta, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3_EpsilonSweep times BAB-P across the ε grid (Fig. 3)
// and reports the achieved utility per ε.
func BenchmarkFigure3_EpsilonSweep(b *testing.B) {
	w := getWorkload(b, gen.PresetLastfm)
	for _, eps := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				res, err := core.SolveBABP(w.Instance, core.BABOptions{
					Progressive: true, Epsilon: eps, Tolerance: 0.01,
				})
				if err != nil {
					b.Fatal(err)
				}
				util = res.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}

// BenchmarkFigure4_VaryK times all four methods at two budgets (Fig. 4).
func BenchmarkFigure4_VaryK(b *testing.B) {
	w := getWorkload(b, gen.PresetLastfm)
	for _, k := range []int{5, 20} {
		inst, err := w.Instance.WithK(k)
		if err != nil {
			b.Fatal(err)
		}
		for _, method := range exp.AllMethods() {
			b.Run(fmt.Sprintf("k=%d/%s", k, method), func(b *testing.B) {
				var util float64
				for i := 0; i < b.N; i++ {
					res, err := solveByName(inst, method)
					if err != nil {
						b.Fatal(err)
					}
					util = res.Utility
				}
				b.ReportMetric(util, "utility")
			})
		}
	}
}

// BenchmarkFigure5_VaryL times all methods across campaign sizes
// (Fig. 5). ℓ changes the MRR samples, so workloads are built per ℓ.
func BenchmarkFigure5_VaryL(b *testing.B) {
	cfg := exp.SmallConfig(gen.PresetLastfm)
	for _, l := range []int{1, 3, 5} {
		cl := cfg
		cl.L = l
		w, err := exp.BuildWorkload(cl)
		if err != nil {
			b.Fatal(err)
		}
		for _, method := range []string{exp.MethodTIM, exp.MethodBABP} {
			b.Run(fmt.Sprintf("l=%d/%s", l, method), func(b *testing.B) {
				var util float64
				for i := 0; i < b.N; i++ {
					res, err := solveByName(w.Instance, method)
					if err != nil {
						b.Fatal(err)
					}
					util = res.Utility
				}
				b.ReportMetric(util, "utility")
			})
		}
	}
}

// BenchmarkFigure6_VaryBetaAlpha times TIM and BAB-P across adoption
// difficulties (Fig. 6); the utility metric shows BAB-P's advantage
// growing as β/α shrinks.
func BenchmarkFigure6_VaryBetaAlpha(b *testing.B) {
	w := getWorkload(b, gen.PresetTweet)
	for _, ratio := range []float64{0.3, 0.5, 0.7} {
		inst, err := w.Instance.WithModel(logistic.Model{Alpha: 1 / ratio, Beta: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, method := range []string{exp.MethodTIM, exp.MethodBABP} {
			b.Run(fmt.Sprintf("ratio=%.1f/%s", ratio, method), func(b *testing.B) {
				var util float64
				for i := 0; i < b.N; i++ {
					res, err := solveByName(inst, method)
					if err != nil {
						b.Fatal(err)
					}
					util = res.Utility
				}
				b.ReportMetric(util, "utility")
			})
		}
	}
}

// BenchmarkSpeedup_BABvsBABP times the plain and progressive searches on
// the same instance — the §VI-C speedup claim in microcosm.
func BenchmarkSpeedup_BABvsBABP(b *testing.B) {
	w := getWorkload(b, gen.PresetDBLP)
	inst, err := w.Instance.WithK(20)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("BAB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveBAB(inst, core.DefaultBABOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BAB-P", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveBABP(inst, core.DefaultBABPOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_BoundCap compares the default hull bound against the
// paper-literal tangent construction (capped and uncapped): same search,
// different pruning tightness.
func BenchmarkAblation_BoundCap(b *testing.B) {
	w := getWorkload(b, gen.PresetLastfm)
	for _, mode := range []logistic.BoundMode{
		logistic.BoundHull, logistic.BoundTangent, logistic.BoundTangentUncapped,
	} {
		inst, err := w.Instance.WithBoundMode(mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				res, err := core.SolveBAB(inst, core.BABOptions{Tolerance: 0.01, MaxNodes: 200})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkAblation_ParallelSampling measures the deterministic parallel
// MRR sampler against a single-threaded run.
func BenchmarkAblation_ParallelSampling(b *testing.B) {
	w := getWorkload(b, gen.PresetDBLP)
	probs := pieceProbs(w)
	b.Run("serial", func(b *testing.B) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		for i := 0; i < b.N; i++ {
			if _, err := rrset.SampleMRR(w.Dataset.G, probs, w.Config.Theta, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rrset.SampleMRR(w.Dataset.G, probs, w.Config.Theta, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_EpsilonSchedule isolates the progressive estimator's
// ε sensitivity at the bound level (one ComputeBoundPro per iteration via
// the greedy solver).
func BenchmarkAblation_EpsilonSchedule(b *testing.B) {
	w := getWorkload(b, gen.PresetLastfm)
	for _, eps := range []float64{0.1, 0.3, 0.5, 0.9} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.SolveGreedy(w.Instance, core.BABOptions{Progressive: true, Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func solveByName(inst *core.Instance, method string) (*core.Result, error) {
	switch method {
	case exp.MethodIM:
		return core.SolveIM(inst, 0xBEEF)
	case exp.MethodTIM:
		return core.SolveTIM(inst)
	case exp.MethodBAB:
		return core.SolveBAB(inst, core.DefaultBABOptions())
	case exp.MethodBABP:
		return core.SolveBABP(inst, core.DefaultBABPOptions())
	}
	return nil, fmt.Errorf("unknown method %q", method)
}
