// Command oipa-bench runs the serving-path micro-benchmarks in-process
// (via testing.Benchmark) and writes a machine-readable JSON report, so
// the repository's performance trajectory is tracked as data rather than
// prose. `make bench` writes BENCH_serve.json at the repo root.
//
// Usage:
//
//	oipa-bench -out BENCH_serve.json [-scale 1.0] [-theta 50000]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"oipa/internal/core"
	"oipa/internal/faultpoint"
	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/serve"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// result is one benchmark row of the report.
type result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// thetaStep is one request of the ascending-θ economics walk. SampleMS
// and IndexMS split the artifact work behind the request: the sampling
// delta and the inverted-index delta (Index.ExtendFrom appends only the
// new samples, so IndexMS scales with Δθ, not θ). Both are 0 for
// hit/prefix outcomes.
type thetaStep struct {
	Theta    int     `json:"theta"`
	Outcome  string  `json:"outcome"` // miss | extend | prefix | hit
	MS       float64 `json:"ms"`      // registry Instance wall time
	SampleMS float64 `json:"sample_ms"`
	IndexMS  float64 `json:"index_ms"`
}

// thetaAscend pins the θ-monotone registry economics: N ascending-θ
// requests over one campaign must run exactly one preparation plus one
// ExtendTo per growth step — never a full re-sample — and a smaller-θ
// request afterwards must be a (near-free) prefix hit. IndexExtendNS is
// the cumulative index-delta time across the growth steps (the
// index_extend_ns serve metric).
type thetaAscend struct {
	Steps         []thetaStep `json:"steps"`
	Prepares      int64       `json:"prepares"`
	Extends       int64       `json:"extends"`
	PrefixHits    int64       `json:"prefix_hits"`
	IndexExtendNS int64       `json:"index_extend_ns"`
}

// saturation records the serve tier's behavior under deliberate
// overload: many concurrent solves against a small admission semaphore
// with a client deadline. OK/Shed/Degraded partition the outcomes
// (shed = 429 or a deadline spent queued; degraded = 200 whose solver
// stopped at the deadline and returned its incumbent), and the latency
// percentiles cover the admitted requests vs the shed ones — shedding
// must be far cheaper than solving for the valve to be worth anything.
type saturation struct {
	Requests     int     `json:"requests"`
	Capacity     int     `json:"admit_capacity"`
	Queue        int     `json:"admit_queue"`
	TimeoutMS    int     `json:"timeout_ms"`
	OK           int     `json:"ok"`
	Shed         int     `json:"shed"`
	Degraded     int     `json:"degraded"`
	Errors       int     `json:"errors"`
	OKP50MS      float64 `json:"ok_p50_ms"`
	OKP95MS      float64 `json:"ok_p95_ms"`
	ShedP50MS    float64 `json:"shed_p50_ms"`
	ShedP95MS    float64 `json:"shed_p95_ms"`
	DegradedP95  float64 `json:"degraded_p95_ms"`
	WallMS       float64 `json:"wall_ms"`
	MetricShed   int64   `json:"metric_shed_total"`
	MetricDegr   int64   `json:"metric_degraded_solves"`
	MetricPanics int64   `json:"metric_panics_total"`
}

// sketchReport characterizes the bottom-k sketch estimator against the
// exact scan at the report's θ: the relative-error distribution over a
// spread of pool-member plans, the measured speedup of the sketch
// benchmark over the exact-scan benchmark, and the cumulative index
// growth time of a sketch-carrying registry walking the same ascending-θ
// ladder as theta_ascend (the sketch's maintenance overhead on
// Index.ExtendFrom, measured back-to-back in the same process so the
// on/off comparison shares whatever noise the machine has).
type sketchReport struct {
	K              int     `json:"k"`
	Theta          int     `json:"theta"`
	Plans          int     `json:"plans"`
	RelErrP50      float64 `json:"rel_err_p50"`
	RelErrP95      float64 `json:"rel_err_p95"`
	RelErrMax      float64 `json:"rel_err_max"`
	SpeedupVsExact float64 `json:"speedup_vs_exact"`
	ExtendNS       int64   `json:"index_extend_sketch_ns"`
}

// parallelRow is one worker-count point of the solve_parallel sweep:
// wall-clock of the identical branch-and-bound workload, speedup against
// the sequential row, and the bit-identity check that makes the speedup
// meaningful (a parallel solve that changed the answer measures nothing).
type parallelRow struct {
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	Speedup    float64 `json:"speedup"`
	ParityOK   bool    `json:"parity_ok"`
	Steals     int64   `json:"steals"`
	SpecWasted int64   `json:"spec_wasted"`
}

// parallelReport sweeps the parallel branch-and-bound search across
// worker counts on a deliberately branchy workload (a steep adoption
// model opens a real bound gap; the report's default α=2 certifies at
// the root and would expand nothing). NumCPU and Oversubscribed qualify
// the numbers: with more workers than physical CPUs the sweep measures
// scheduler time-slicing, not parallel speedup.
type parallelReport struct {
	Theta          int           `json:"theta"`
	K              int           `json:"k"`
	Nodes          int64         `json:"nodes"`
	SolvesPerPoint int           `json:"solves_per_point"`
	NumCPU         int           `json:"num_cpu"`
	Oversubscribed bool          `json:"oversubscribed,omitempty"`
	Rows           []parallelRow `json:"rows"`
}

// multiplexReport compares single-graph and two-layer multiplex serving
// over the same base graph and campaign: the layer-coupled sampling cost
// (the sample_mrr_multiplex benchmark row is its ns/op), the preparation
// split, and the spread gain the second diffusion layer buys at the same
// budget — the serve tier's "layers" request field is priced by exactly
// this delta.
type multiplexReport struct {
	Layers           int     `json:"layers"`
	UniverseN        int     `json:"universe_n"`
	Theta            int     `json:"theta"`
	SampleMS         float64 `json:"sample_ms"`
	IndexMS          float64 `json:"index_ms"`
	SingleUtility    float64 `json:"single_utility"`
	MultiplexUtility float64 `json:"multiplex_utility"`
	SpreadGainPct    float64 `json:"spread_gain_pct"`
}

// serveLatency is the histogram-derived serve-path latency profile:
// after a fixed traffic mix over HTTP-in-process, the quantiles come
// straight out of the serve tier's lock-free latency histograms — the
// same numbers /metrics exposes in production, pinned here as data.
type serveLatency struct {
	Solves    int                  `json:"solves"`
	Estimates int                  `json:"estimates"`
	Solve     serve.HistogramStats `json:"solve"`
	Estimate  serve.HistogramStats `json:"estimate"`
}

// obsOverhead compares the fully instrumented request path (histograms,
// request ids, status capture) against a DisableObs server driving the
// identical request stream, interleaved in one process. The target is
// <2%: observability must be effectively free on the serving path.
type obsOverhead struct {
	Requests    int     `json:"requests"`
	ObsNsPerOp  float64 `json:"obs_ns_per_op"`
	OffNsPerOp  float64 `json:"off_ns_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
}

// report is the BENCH_serve.json schema.
type report struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// DegenerateParallelism flags a report generated with GOMAXPROCS=1:
	// every parallel section (index build/extend shards, evaluator pools,
	// the saturation burst) ran serialized, so absolute numbers are NOT
	// comparable to multi-core runs and run-to-run noise is much higher
	// (no parallel averaging). Compare such reports only against other
	// single-core runs.
	DegenerateParallelism bool    `json:"degenerate_parallelism,omitempty"`
	Scale                 float64 `json:"scale"`
	Theta                 int     `json:"theta"`
	Graph                 struct {
		N int `json:"n"`
		M int `json:"m"`
		Z int `json:"z"`
	} `json:"graph"`
	Benchmarks    []result         `json:"benchmarks"`
	Sketch        *sketchReport    `json:"sketch,omitempty"`
	SolveParallel *parallelReport  `json:"solve_parallel,omitempty"`
	Multiplex     *multiplexReport `json:"multiplex,omitempty"`
	ThetaAscend   *thetaAscend     `json:"theta_ascend,omitempty"`
	Saturation    *saturation      `json:"saturation,omitempty"`
	ServeLatency  *serveLatency    `json:"serve_latency,omitempty"`
	ObsOverhead   *obsOverhead     `json:"obs_overhead,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oipa-bench: ")
	var (
		out     = flag.String("out", "BENCH_serve.json", "output JSON path (- for stdout)")
		scale   = flag.Float64("scale", 1.0, "lastfm dataset scale")
		theta   = flag.Int("theta", 50_000, "MRR samples for sampling/solve benchmarks")
		k       = flag.Int("k", 10, "solve budget")
		sketchK = flag.Int("sketch-k", 256, "bottom-k sketch size for the sketch benchmarks (0 disables the sketch section)")
	)
	flag.Parse()

	dataset, err := gen.LastfmSim(*scale, 42)
	if err != nil {
		log.Fatal(err)
	}
	g := dataset.G
	pool, err := gen.PromoterPool(g, 0.10, 43)
	if err != nil {
		log.Fatal(err)
	}
	campaign := topic.UniformCampaign("bench", 3, g.Z(), xrand.New(7))
	prob := &core.Problem{
		G:        g,
		Campaign: campaign,
		Pool:     pool,
		K:        *k,
		Model:    logistic.Model{Alpha: 2, Beta: 1},
	}

	// Shared prepared state for the hit-path benchmarks.
	cache := graph.NewLayoutCache(g, 64)
	layouts := make([]*graph.PieceLayout, campaign.L())
	for j, piece := range campaign.Pieces {
		if layouts[j], err = cache.Get(piece.Dist); err != nil {
			log.Fatal(err)
		}
	}
	inst, err := core.PrepareLayouts(prob, layouts, *theta, 1)
	if err != nil {
		log.Fatal(err)
	}
	evals := core.NewEvaluatorPool(inst)
	view := inst.Index.MRR()
	est := view.NewEstimator()
	greedy, err := evals.SolveGreedy(inst, core.BABOptions{})
	if err != nil {
		log.Fatal(err)
	}

	rep := report{
		Generated:             time.Now().UTC().Format(time.RFC3339),
		GoVersion:             runtime.Version(),
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		DegenerateParallelism: runtime.GOMAXPROCS(0) == 1,
		Scale:                 *scale,
		Theta:                 *theta,
	}
	rep.Graph.N, rep.Graph.M, rep.Graph.Z = g.N(), g.M(), g.Z()
	if rep.DegenerateParallelism {
		log.Print("********************************************************************")
		log.Print("* WARNING: degenerate_parallelism — GOMAXPROCS=1.                  *")
		log.Print("* Every parallel section (index shards, evaluator pools, the       *")
		log.Print("* solve_parallel sweep, the saturation burst) ran SERIALIZED.      *")
		log.Print("* Absolute numbers are NOT comparable to multi-core runs, noise    *")
		log.Print("* is elevated, and parallel speedups are meaningless. Re-run with  *")
		log.Print("* GOMAXPROCS>1 before reading any wall-clock comparison.           *")
		log.Print("********************************************************************")
	}
	if ncpu := runtime.NumCPU(); ncpu < rep.GOMAXPROCS {
		log.Printf("WARNING: oversubscribed — GOMAXPROCS=%d exceeds the machine's %d CPUs; parallel wall-clock rows measure scheduler time-slicing, not speedup", rep.GOMAXPROCS, ncpu)
	}

	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		rep.Benchmarks = append(rep.Benchmarks, result{
			Name:        name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		log.Printf("%-28s %12.0f ns/op  %8d B/op  %6d allocs/op",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	piece := campaign.Pieces[0].Dist
	run("layout_build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Layout(g.PieceProbs(piece)); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("layout_cache_hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Get(piece); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("sample_mrr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rrset.SampleMRRLayouts(g, layouts, *theta, uint64(i)+1); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("prepare_layouts", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.PrepareLayouts(prob, layouts, *theta, uint64(i)+1); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("solve_greedy_pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := evals.SolveGreedy(inst, core.BABOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("solve_babp_pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := evals.SolveBABP(inst, core.DefaultBABPOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("estimate_au_view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := est.EstimateAU(greedy.Plan.Seeds, prob.Model); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Bottom-k sketch estimator: O(k·|plan|) per estimate, independent of
	// θ, against the θ-proportional exact scan above. Sketches attach
	// AFTER every exact benchmark ran, so those rows are untouched.
	if *sketchK > 0 {
		if err := inst.Index.AttachSketches(*sketchK); err != nil {
			log.Fatal(err)
		}
		sks := rrset.NewSketchScratch()
		run("estimate_au_sketch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inst.Index.EstimateAUSketchWith(greedy.Plan.Seeds, prob.Model, sks); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Sketch = sketchErrors(inst, prob.Model, pool, campaign.L(), *sketchK, *theta)
		var exactNS, sketchNS float64
		for _, r := range rep.Benchmarks {
			switch r.Name {
			case "estimate_au_view":
				exactNS = r.NsPerOp
			case "estimate_au_sketch":
				sketchNS = r.NsPerOp
			}
		}
		if sketchNS > 0 {
			rep.Sketch.SpeedupVsExact = exactNS / sketchNS
		}
		log.Printf("sketch: k=%d speedup %.1fx over exact scan; rel err p50 %.4f p95 %.4f max %.4f over %d plans",
			*sketchK, rep.Sketch.SpeedupVsExact, rep.Sketch.RelErrP50, rep.Sketch.RelErrP95, rep.Sketch.RelErrMax, rep.Sketch.Plans)
	}

	// θ-monotone registry: walk one campaign through ascending θ via a
	// serve registry and record the per-step economics, then benchmark
	// the prefix-hit path (a smaller-θ request against the grown entry).
	srv, err := serve.New(serve.Config{
		Graph:        g,
		Pool:         pool,
		Model:        prob.Model,
		DefaultTheta: *theta,
		MaxTheta:     4 * *theta,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	reg := srv.Registry()
	ctx := context.Background()
	ascend := &thetaAscend{}
	for _, th := range []int{*theta / 4, *theta / 2, *theta, *theta / 4} {
		start := time.Now()
		art, outcome, err := reg.Instance(ctx, campaign, th, 1)
		if err != nil {
			log.Fatal(err)
		}
		step := thetaStep{
			Theta:   th,
			Outcome: outcome.String(),
			MS:      float64(time.Since(start)) / float64(time.Millisecond),
		}
		if !outcome.CacheHit() {
			// Miss: the full sampling + index build; extend: only the
			// growth step's deltas.
			step.SampleMS = float64(art.Instance().SampleTime) / float64(time.Millisecond)
			step.IndexMS = float64(art.Instance().IndexTime) / float64(time.Millisecond)
		}
		ascend.Steps = append(ascend.Steps, step)
		log.Printf("theta_ascend: theta=%-8d %-7s %8.1f ms (sample %.1f, index %.1f)",
			th, outcome, step.MS, step.SampleMS, step.IndexMS)
	}
	snap := srv.Metrics()
	ascend.Prepares = snap.Registry.Prepares
	ascend.Extends = snap.Registry.Extends
	ascend.PrefixHits = snap.Registry.PrefixHits
	ascend.IndexExtendNS = snap.Registry.IndexExtendNS
	rep.ThetaAscend = ascend

	// Back-to-back sketch-on growth walk: the same ascending-θ ladder
	// against a sketch-carrying registry, in the same process, so the
	// sketch's ExtendFrom maintenance overhead is measured under the same
	// machine noise as the plain walk above.
	if rep.Sketch != nil {
		ssrv, err := serve.New(serve.Config{
			Graph:        g,
			Pool:         pool,
			Model:        prob.Model,
			DefaultTheta: *theta,
			MaxTheta:     4 * *theta,
			SketchK:      *sketchK,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, th := range []int{*theta / 4, *theta / 2, *theta} {
			if _, _, err := ssrv.Registry().Instance(ctx, campaign, th, 2); err != nil {
				log.Fatal(err)
			}
		}
		rep.Sketch.ExtendNS = ssrv.Metrics().Registry.IndexExtendNS
		ssrv.Close()
		log.Printf("sketch: index_extend_sketch_ns=%d (plain walk: %d)", rep.Sketch.ExtendNS, ascend.IndexExtendNS)
	}

	run("registry_prefix_hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := reg.Instance(ctx, campaign, *theta/2, 1); err != nil {
				b.Fatal(err)
			}
		}
	})

	rep.SolveParallel = solveParallel(g, pool, campaign, *theta, *k)

	rep.Multiplex = multiplexSection(run, g, pool, prob.Model, campaign, inst, *scale, *theta, *k)

	rep.Saturation = saturate(g, pool, prob.Model, campaign, *theta, *k)
	rep.ServeLatency, rep.ObsOverhead = serveObs(g, pool, prob.Model, campaign, *theta, *k)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		fmt.Print(string(data))
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// sketchErrors measures the sketch estimator's relative error against
// the exact index scan over a spread of deterministic pool-member plans
// (varied sizes per piece, the solver-scale regime the sketch serves).
func sketchErrors(inst *core.Instance, model logistic.Model, pool []int32, l, k, theta int) *sketchReport {
	const plans = 24
	r := xrand.New(12345)
	sks := rrset.NewSketchScratch()
	errs := make([]float64, 0, plans)
	for ps := 0; ps < plans; ps++ {
		plan := make([][]int32, l)
		for j := range plan {
			size := 4 + r.Intn(8)
			if size > len(pool) {
				size = len(pool)
			}
			seeds := make([]int32, 0, size)
			for _, p := range r.Sample(len(pool), size) {
				seeds = append(seeds, pool[p])
			}
			plan[j] = seeds
		}
		exact, err := inst.Index.EstimateAU(plan, model)
		if err != nil {
			log.Fatal(err)
		}
		approx, err := inst.Index.EstimateAUSketchWith(plan, model, sks)
		if err != nil {
			log.Fatal(err)
		}
		if exact > 0 {
			errs = append(errs, abs(approx-exact)/exact)
		}
	}
	rep := &sketchReport{
		K:         k,
		Theta:     theta,
		Plans:     len(errs),
		RelErrP50: percentile(errs, 0.50),
		RelErrP95: percentile(errs, 0.95),
	}
	if len(errs) > 0 {
		rep.RelErrMax = errs[len(errs)-1] // percentile sorted the slice
	}
	return rep
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// solveParallel sweeps the parallel branch-and-bound search across
// worker counts. The workload is fixed across the sweep — one prepared
// instance under a steep adoption model (α=6: the report's default α=2
// tangent bound certifies this dataset at the root, expanding zero
// nodes), a node cap so every point expands the identical tree, and one
// shared evaluator pool so the sweep also exercises the pool's
// multi-checkout path. Each point reports the best of several runs and
// verifies bit-identity against the sequential answer.
func solveParallel(g *graph.Graph, pool []int32, campaign topic.Campaign, theta, k int) *parallelReport {
	const (
		maxNodes = 48
		perPoint = 3
		steepA   = 6.0
		steepB   = 2.0
	)
	prob := &core.Problem{
		G:        g,
		Campaign: campaign,
		Pool:     pool,
		K:        k,
		Model:    logistic.Model{Alpha: steepA, Beta: steepB},
	}
	inst, err := core.Prepare(context.Background(), prob, theta, 1)
	if err != nil {
		log.Fatal(err)
	}
	evals := core.NewEvaluatorPool(inst)
	opts := core.BABOptions{Tolerance: 0, RawGap: true, MaxNodes: maxNodes}

	rep := &parallelReport{
		Theta:          theta,
		K:              k,
		SolvesPerPoint: perPoint,
		NumCPU:         runtime.NumCPU(),
		Oversubscribed: runtime.NumCPU() < runtime.GOMAXPROCS(0),
	}
	var base *core.Result
	var baseMS float64
	for _, w := range []int{1, 2, 4, 8} {
		popts := opts
		popts.Workers = w
		var best float64
		var res *core.Result
		for r := 0; r < perPoint; r++ {
			start := time.Now()
			rr, err := evals.SolveBAB(inst, popts)
			if err != nil {
				log.Fatal(err)
			}
			if ms := float64(time.Since(start)) / float64(time.Millisecond); res == nil || ms < best {
				best, res = ms, rr
			}
		}
		row := parallelRow{
			Workers:    w,
			WallMS:     best,
			Steals:     res.Stats.Steals,
			SpecWasted: res.Stats.SpecWasted,
		}
		if base == nil {
			base, baseMS = res, best
			rep.Nodes = int64(res.Stats.Nodes)
			row.ParityOK, row.Speedup = true, 1
		} else {
			row.ParityOK = res.Utility == base.Utility && res.Upper == base.Upper && planEqual(res.Plan.Seeds, base.Plan.Seeds)
			if best > 0 {
				row.Speedup = baseMS / best
			}
		}
		if !row.ParityOK {
			log.Fatalf("solve_parallel: workers=%d diverged from the sequential answer", w)
		}
		rep.Rows = append(rep.Rows, row)
		log.Printf("solve_parallel: workers=%d wall %8.1f ms  speedup %5.2fx  steals=%d spec_wasted=%d parity=%v",
			w, row.WallMS, row.Speedup, row.Steals, row.SpecWasted, row.ParityOK)
	}
	if rep.Oversubscribed || runtime.GOMAXPROCS(0) == 1 {
		log.Printf("solve_parallel: NOTE — %d CPUs for GOMAXPROCS=%d: speedups above reflect scheduling, not hardware parallelism", rep.NumCPU, runtime.GOMAXPROCS(0))
	}
	return rep
}

func planEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
		for i := range a[j] {
			if a[j][i] != b[j][i] {
				return false
			}
		}
	}
	return true
}

// multiplexSection stacks a second independently generated lastfm layer
// (same scale, so the identity embedding is total) over the base graph,
// benchmarks the layer-coupled sampler against the single-graph
// sample_mrr row, and solves the same campaign at the same budget on
// both substrates to price the second layer's spread gain.
func multiplexSection(run func(string, func(*testing.B)), g *graph.Graph, pool []int32, model logistic.Model, campaign topic.Campaign, single *core.Instance, scale float64, theta, k int) *multiplexReport {
	layer, err := gen.LastfmSim(scale, 77)
	if err != nil {
		log.Fatal(err)
	}
	mx, err := graph.NewMultiplex(g.N(), []graph.MultiplexLayer{{G: g}, {G: layer.G}}, 0)
	if err != nil {
		log.Fatal(err)
	}
	muxLayouts := make([][]*graph.PieceLayout, campaign.L())
	for j, piece := range campaign.Pieces {
		if muxLayouts[j], err = mx.Layouts(piece.Dist); err != nil {
			log.Fatal(err)
		}
	}
	run("sample_mrr_multiplex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rrset.SampleMRRMultiplexLayouts(mx, muxLayouts, theta, uint64(i)+1); err != nil {
				b.Fatal(err)
			}
		}
	})
	prob := &core.Problem{Mux: mx, Campaign: campaign, Pool: pool, K: k, Model: model}
	minst, err := core.Prepare(context.Background(), prob, theta, 1, muxLayouts...)
	if err != nil {
		log.Fatal(err)
	}
	sres, err := core.SolveBABP(single, core.DefaultBABPOptions())
	if err != nil {
		log.Fatal(err)
	}
	mres, err := core.SolveBABP(minst, core.DefaultBABPOptions())
	if err != nil {
		log.Fatal(err)
	}
	rep := &multiplexReport{
		Layers:           mx.L(),
		UniverseN:        mx.N(),
		Theta:            theta,
		SampleMS:         float64(minst.SampleTime) / float64(time.Millisecond),
		IndexMS:          float64(minst.IndexTime) / float64(time.Millisecond),
		SingleUtility:    sres.Utility,
		MultiplexUtility: mres.Utility,
	}
	if sres.Utility > 0 {
		rep.SpreadGainPct = 100 * (mres.Utility - sres.Utility) / sres.Utility
	}
	log.Printf("multiplex: %d layers over n=%d: utility %.3f vs single %.3f (%+.1f%%); sample %.1f ms, index %.1f ms",
		rep.Layers, rep.UniverseN, rep.MultiplexUtility, rep.SingleUtility, rep.SpreadGainPct, rep.SampleMS, rep.IndexMS)
	return rep
}

// saturate drives a dedicated serve instance well past its admission
// capacity over HTTP and records the shed/degraded/latency profile. A
// fresh server (small semaphore, shallow queue, prepared artifact) keeps
// the overload deterministic-ish and the numbers comparable run to run.
func saturate(g *graph.Graph, pool []int32, model logistic.Model, campaign topic.Campaign, theta, k int) *saturation {
	const timeoutMS = 300
	capacity := 2 * runtime.GOMAXPROCS(0)
	queue := capacity // shallow: a third of the burst must shed
	srv, err := serve.New(serve.Config{
		Graph:          g,
		Pool:           pool,
		Model:          model,
		DefaultTheta:   theta,
		MaxTheta:       4 * theta,
		AdmitCapacity:  capacity,
		AdmitQueue:     queue,
		RequestTimeout: timeoutMS * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	// Prepare the artifact outside the measured window: saturation probes
	// the admission valve and the solver deadline, not sampling cost.
	if _, _, err := srv.Registry().Instance(context.Background(), campaign, theta/4, 1); err != nil {
		log.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Deterministic saturation via the fault-injection harness: every
	// admitted request holds its slot past its own deadline (the delay
	// sits between artifact acquisition and solver dispatch), so it
	// returns a degraded incumbent at ~holdMS while the rest of the burst
	// piles into the bounded queue and sheds. This measures the valve
	// itself — shed latency vs held-slot latency — independent of how
	// fast the solver happens to be on this dataset.
	const holdMS = timeoutMS + 60
	if err := faultpoint.Arm("serve.solve.dispatch", fmt.Sprintf("delay:%dms", holdMS)); err != nil {
		log.Fatal(err)
	}
	defer faultpoint.Disarm("serve.solve.dispatch")
	body, err := json.Marshal(serve.SolveRequest{
		Campaign:  campaign,
		Method:    "babp",
		K:         k,
		Theta:     theta / 4,
		TimeoutMS: timeoutMS,
	})
	if err != nil {
		log.Fatal(err)
	}

	requests := 6 * capacity
	sat := &saturation{Requests: requests, Capacity: capacity, Queue: queue, TimeoutMS: timeoutMS}
	type outcome struct {
		status   int
		degraded bool
		ms       float64
	}
	outcomes := make([]outcome, requests)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				outcomes[i] = outcome{status: -1}
				return
			}
			var sr serve.SolveResponse
			dec := json.NewDecoder(resp.Body)
			if resp.StatusCode == 200 {
				if err := dec.Decode(&sr); err != nil {
					resp.Body.Close()
					outcomes[i] = outcome{status: -1}
					return
				}
			} else {
				_, _ = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			outcomes[i] = outcome{
				status:   resp.StatusCode,
				degraded: sr.Degraded,
				ms:       float64(time.Since(t0)) / float64(time.Millisecond),
			}
		}(i)
	}
	wg.Wait()
	sat.WallMS = float64(time.Since(start)) / float64(time.Millisecond)

	var okMS, shedMS, degrMS []float64
	for _, o := range outcomes {
		switch {
		case o.status == 200 && o.degraded:
			sat.Degraded++
			sat.OK++
			okMS = append(okMS, o.ms)
			degrMS = append(degrMS, o.ms)
		case o.status == 200:
			sat.OK++
			okMS = append(okMS, o.ms)
		case o.status == 429 || o.status == 503:
			sat.Shed++
			shedMS = append(shedMS, o.ms)
		default:
			sat.Errors++
		}
	}
	sat.OKP50MS, sat.OKP95MS = percentile(okMS, 0.50), percentile(okMS, 0.95)
	sat.ShedP50MS, sat.ShedP95MS = percentile(shedMS, 0.50), percentile(shedMS, 0.95)
	sat.DegradedP95 = percentile(degrMS, 0.95)
	snap := srv.Metrics()
	sat.MetricShed = snap.Server.ShedTotal
	sat.MetricDegr = snap.Server.DegradedSolves
	sat.MetricPanics = snap.Server.PanicsTotal
	log.Printf("saturation: %d requests over capacity %d: ok=%d (degraded=%d) shed=%d errors=%d; ok p95 %.1f ms, shed p95 %.1f ms",
		sat.Requests, sat.Capacity, sat.OK, sat.Degraded, sat.Shed, sat.Errors, sat.OKP95MS, sat.ShedP95MS)
	return sat
}

// serveObs measures the serve tier's observability layer: a fixed
// traffic mix against an instrumented server yields the serve_latency
// section straight from its latency histograms, and an interleaved
// instrumented-vs-DisableObs comparison over the identical estimate
// stream yields the overhead entry. Requests run in-process through the
// http.Handler (httptest.NewRecorder — no TCP, no client), so the
// difference between the two servers is the instrumentation alone.
func serveObs(g *graph.Graph, pool []int32, model logistic.Model, campaign topic.Campaign, theta, k int) (*serveLatency, *obsOverhead) {
	mk := func(disable bool) *serve.Server {
		srv, err := serve.New(serve.Config{
			Graph:        g,
			Pool:         pool,
			Model:        model,
			DefaultTheta: theta,
			MaxTheta:     4 * theta,
			DisableObs:   disable,
		})
		if err != nil {
			log.Fatal(err)
		}
		return srv
	}
	plan := make([][]int32, campaign.L())
	for j := range plan {
		n := 6
		if n > len(pool) {
			n = len(pool)
		}
		plan[j] = pool[:n]
	}
	estBody, err := json.Marshal(serve.EstimateRequest{Campaign: campaign, Plan: plan, Theta: theta / 4})
	if err != nil {
		log.Fatal(err)
	}
	solveBody, err := json.Marshal(serve.SolveRequest{Campaign: campaign, Method: "babp", K: k, Theta: theta / 4})
	if err != nil {
		log.Fatal(err)
	}
	drive := func(h http.Handler, path string, body []byte, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 200 {
				log.Fatalf("%s returned %d: %s", path, w.Code, w.Body.String())
			}
		}
		return time.Since(start)
	}

	// serve_latency: a solve/estimate mix against the instrumented server;
	// quantiles read back from its own histograms.
	const nSolves, nEstimates = 40, 200
	on := mk(false)
	defer on.Close()
	drive(on.Handler(), "/v1/estimate", estBody, 1) // artifact preparation outside the mix
	drive(on.Handler(), "/v1/solve", solveBody, nSolves)
	drive(on.Handler(), "/v1/estimate", estBody, nEstimates)
	snap := on.Metrics()
	lat := &serveLatency{Solves: nSolves, Estimates: nEstimates + 1, Solve: snap.Latency.Solve, Estimate: snap.Latency.Estimate}
	log.Printf("serve_latency: solve p50 %.2f p95 %.2f p99 %.2f ms; estimate p50 %.3f p95 %.3f p99 %.3f ms",
		lat.Solve.P50MS, lat.Solve.P95MS, lat.Solve.P99MS, lat.Estimate.P50MS, lat.Estimate.P95MS, lat.Estimate.P99MS)

	// Overhead: alternate batches across the two servers and keep each
	// server's best batch — interleaving shares machine noise, min is
	// robust against stray scheduling hiccups.
	off := mk(true)
	defer off.Close()
	drive(off.Handler(), "/v1/estimate", estBody, 1)
	const batches, perBatch = 5, 200
	best := func(cur, d time.Duration) time.Duration {
		if cur == 0 || d < cur {
			return d
		}
		return cur
	}
	var onBest, offBest time.Duration
	for b := 0; b < batches; b++ {
		onBest = best(onBest, drive(on.Handler(), "/v1/estimate", estBody, perBatch))
		offBest = best(offBest, drive(off.Handler(), "/v1/estimate", estBody, perBatch))
	}
	ov := &obsOverhead{
		Requests:   batches * perBatch,
		ObsNsPerOp: float64(onBest.Nanoseconds()) / perBatch,
		OffNsPerOp: float64(offBest.Nanoseconds()) / perBatch,
	}
	if ov.OffNsPerOp > 0 {
		ov.OverheadPct = 100 * (ov.ObsNsPerOp - ov.OffNsPerOp) / ov.OffNsPerOp
	}
	log.Printf("obs_overhead: instrumented %.0f ns/op vs disabled %.0f ns/op: %+.2f%% (target < 2%%)",
		ov.ObsNsPerOp, ov.OffNsPerOp, ov.OverheadPct)
	return lat, ov
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
