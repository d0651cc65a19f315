package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"oipa/internal/cascade"
	"oipa/internal/core"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/serve"
	"oipa/internal/topic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

const (
	replayCalls = 9 // calls per layer function; the reading is their median
	walkRoots   = 100_000
	sketchK     = 256
	mcRuns      = 10_000
)

// timing is the median cost of one call.
type timing struct {
	NS     float64
	Allocs float64
	Bytes  float64
}

func (t timing) ms() float64 { return t.NS / 1e6 }
func (t timing) us() float64 { return t.NS / 1e3 }

// layerReplay times calls into each layer's public functions, in this
// process, on the benchmark graph and the workloads' own first inputs.
// Every call is one span in the trace.
type layerReplay struct {
	tr  *tracer
	err error // first failure; later measures are skipped
}

// measure runs prep (untimed) then fn (timed) replayCalls times. fn runs
// inner times per call for functions too short to time singly; the
// reading is per single run.
func (l *layerReplay) measure(name string, inner int, prep func() error, fn func() error) timing {
	var ns, allocs, bytes []float64
	var before, after runtime.MemStats
	for i := 0; i < replayCalls && l.err == nil; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				l.err = fmt.Errorf("%s: set-up: %w", name, err)
				break
			}
		}
		runtime.ReadMemStats(&before)
		d := l.tr.record("layer-replay", name, func() {
			for j := 0; j < inner && l.err == nil; j++ {
				if err := fn(); err != nil {
					l.err = fmt.Errorf("%s: %w", name, err)
				}
			}
		})
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(d.Nanoseconds())/float64(inner))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(inner))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(inner))
	}
	if l.err != nil {
		return timing{}
	}
	return timing{NS: median(ns), Allocs: median(allocs), Bytes: median(bytes)}
}

// replayLayers produces every per-layer reading that does not need the
// server child.
func replayLayers(tr *tracer, g *graph.Graph, pool []int32, in inputs) (map[string]float64, error) {
	l := &layerReplay{tr: tr}
	out := map[string]float64{}

	// Inputs: the first cold_prepare request, the warm_solve_bab campaign
	// and its first request, a warm_query_mix-shaped estimate plan.
	cold := workloads[0].Next(in, 0, 0).Solve
	babReq := workloads[2].Next(in, 0, 0).Solve
	steep := logistic.Model{Alpha: babReq.Alpha, Beta: babReq.Beta}
	plan := poolPlan(derive(in.Seed, streamMix, 9, 0), pool, len(cold.Campaign.Pieces), 4)

	// ---- graph ----
	dist0 := cold.Campaign.Pieces[0].Dist
	var lay0 *graph.PieceLayout
	out["graph.layout_build_ms"] = l.measure("graph.Layout", 1, nil, func() (err error) {
		lay0, err = g.Layout(g.PieceProbs(dist0))
		return err
	}).ms()
	if l.err != nil {
		return nil, l.err
	}
	out["graph.layout_bytes"] = float64(8*(len(lay0.InProbs)+len(lay0.OutProbs)) + 24*(len(lay0.InDist)+len(lay0.OutDist)))
	cache := graph.NewLayoutCache(g, 128)
	if _, err := cache.Get(dist0); err != nil {
		return nil, err
	}
	out["graph.layout_cache_hit_ns"] = l.measure("graph.LayoutCache.Get", 1000, nil, func() error {
		_, err := cache.Get(dist0)
		return err
	}).NS

	// ---- traverse ----
	walker := traverse.NewWalker(g.N())
	inOff, inFrom := g.InCSR()
	out["traverse.walk_ns_per_sample"] = l.measure("traverse.Walker.RunFrom", 1, nil, func() error {
		r := xrand.New(in.Seed)
		for i := 0; i < walkRoots; i++ {
			walker.RunFrom(inOff, inFrom, lay0.InDist, lay0.InProbs, int32(r.Intn(g.N())), r)
		}
		return nil
	}).NS / walkRoots

	// ---- rrset sampling ----
	layouts, err := buildLayouts(g, cold.Campaign)
	if err != nil {
		return nil, err
	}
	var mrr *rrset.MRRCollection
	sample := l.measure("rrset.SampleMRRLayouts", 1, nil, func() (err error) {
		mrr, err = rrset.SampleMRRLayouts(g, layouts, thetaBase, cold.Seed)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	out["rrset.sample_ms"] = sample.ms()
	out["rrset.samples_per_s"] = thetaBase / (sample.NS / 1e9)
	out["rrset.sample_allocs_per_sample"] = sample.Allocs / thetaBase
	out["rrset.sample_bytes_per_sample"] = sample.Bytes / thetaBase
	out["rrset.rr_nodes_per_sample"] = float64(mrr.TotalSize()) / thetaBase
	out["rrset.collection_bytes"] = float64(mrr.MemUsage())

	// The one-identity-layer multiplex draws the same samples through
	// MultiWalker; its ratio to sample_ms decides whether Walker goes.
	mx, err := graph.NewMultiplex(g.N(), []graph.MultiplexLayer{{G: g}}, 0)
	if err != nil {
		return nil, err
	}
	muxLayouts := make([][]*graph.PieceLayout, len(cold.Campaign.Pieces))
	for j, piece := range cold.Campaign.Pieces {
		if muxLayouts[j], err = mx.Layouts(piece.Dist); err != nil {
			return nil, err
		}
	}
	out["rrset.sample_mux1_ms"] = l.measure("rrset.SampleMRRMultiplexLayouts", 1, nil, func() error {
		_, err := rrset.SampleMRRMultiplexLayouts(mx, muxLayouts, thetaBase, cold.Seed)
		return err
	}).ms()

	// ---- rrset index / estimators, and in-place growth ----
	var ix *rrset.Index
	build := l.measure("rrset.BuildIndex", 1, nil, func() (err error) {
		ix, err = mrr.BuildIndex(pool)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	out["rrset.index_build_ms"] = build.ms()
	out["rrset.index_bytes"] = float64(ix.MemUsage())
	est := ix.MRR().NewEstimator()
	out["rrset.estimate_exact_us"] = l.measure("rrset.AUEstimator.EstimateAU", 1, nil, func() error {
		_, err := est.EstimateAU(plan, serverModel)
		return err
	}).us()
	out["rrset.sketch_attach_ms"] = l.measure("rrset.AttachSketches", 1, nil, func() error {
		return ix.AttachSketches(sketchK)
	}).ms()
	scratch := rrset.NewSketchScratch()
	out["rrset.estimate_sketch_us"] = l.measure("rrset.EstimateAUSketchWith", 100, nil, func() error {
		_, err := ix.EstimateAUSketchWith(plan, serverModel, scratch)
		return err
	}).us()

	// Growth needs a fresh 100k collection (and index) per call.
	var grown *rrset.MRRCollection
	var grownIx *rrset.Index
	freshBase := func() (err error) {
		grown, err = rrset.SampleMRRLayouts(g, layouts, thetaBase, cold.Seed)
		return err
	}
	out["rrset.extend_ms"] = l.measure("rrset.MRRCollection.ExtendTo", 1, freshBase, func() error {
		return grown.ExtendTo(2 * thetaBase)
	}).ms()
	out["rrset.index_extend_ms"] = l.measure("rrset.Index.ExtendFrom", 1, func() (err error) {
		if err = freshBase(); err != nil {
			return err
		}
		if grownIx, err = grown.BuildIndex(pool); err != nil {
			return err
		}
		return grown.ExtendTo(2 * thetaBase)
	}, func() error {
		_, err := grownIx.ExtendFrom(grown)
		return err
	}).ms()

	// ---- core ----
	prob := &core.Problem{G: g, Campaign: cold.Campaign, Pool: pool, K: 1, Model: serverModel}
	out["core.prepare_ms"] = l.measure("core.PrepareLayouts", 1, nil, func() error {
		_, err := core.PrepareLayouts(prob, layouts, thetaBase, cold.Seed)
		return err
	}).ms()

	warm, err := prepareFresh(g, pool, babReq.Campaign, thetaBase, babReq.Seed)
	if err != nil {
		return nil, err
	}
	flat, err := warm.inst.WithK(10)
	if err != nil {
		return nil, err
	}
	deep, err := flat.WithModel(steep)
	if err != nil {
		return nil, err
	}
	opts := core.BABOptions{Epsilon: 0.5, Tolerance: 0.01, RawGap: true, FillAfterFloor: true}
	out["core.solve_greedy_ms"] = l.measure("core.EvaluatorPool.SolveGreedy", 1, nil, func() error {
		_, err := warm.evals.SolveGreedy(flat, opts)
		return err
	}).ms()
	out["core.solve_babp_root_ms"] = l.measure("core.EvaluatorPool.SolveBABP/root", 1, nil, func() error {
		_, err := warm.evals.SolveBABP(flat, opts)
		return err
	}).ms()
	opts.MaxNodes = babReq.MaxNodes
	var res *core.Result
	bab := l.measure("core.EvaluatorPool.SolveBAB", 1, nil, func() (err error) {
		res, err = warm.evals.SolveBAB(deep, opts)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	out["core.solve_bab_ms"] = bab.ms()
	out["core.bab_nodes"] = float64(res.Stats.Nodes)
	out["core.bound_evals"] = float64(res.Stats.BoundEvals)
	out["core.tau_evals"] = float64(res.Stats.TauEvals)
	out["core.ns_per_tau_eval"] = bab.NS / float64(res.Stats.TauEvals)
	out["core.solve_allocs"] = bab.Allocs
	out["core.solve_babp_ms"] = l.measure("core.EvaluatorPool.SolveBABP", 1, nil, func() error {
		_, err := warm.evals.SolveBABP(deep, opts)
		return err
	}).ms()
	// solve_bab_ms ÷ solve_bab_w2_ms, read beside num_cpu, is the
	// parallel-BAB verdict row.
	opts.Workers = 2
	out["core.solve_bab_w2_ms"] = l.measure("core.EvaluatorPool.SolveBAB/workers=2", 1, nil, func() (err error) {
		res, err = warm.evals.SolveBAB(deep, opts)
		return err
	}).ms()
	if l.err != nil {
		return nil, l.err
	}
	out["core.bab_spec_wasted_share"] = 0
	if res.Stats.SpecExpansions > 0 {
		out["core.bab_spec_wasted_share"] = float64(res.Stats.SpecWasted) / float64(res.Stats.SpecExpansions)
	}

	// ---- cascade: the naive forward live-edge baseline ----
	out["cascade.forward_mc_ms"] = l.measure("cascade.EstimateAdoptionLayouts", 1, nil, func() error {
		_, err := cascade.EstimateAdoptionLayouts(g, layouts, plan, serverModel, mcRuns, in.Seed)
		return err
	}).ms()

	if l.err != nil {
		return nil, l.err
	}
	if err := replayServe(l, g, pool, in, plan, out); err != nil {
		return nil, err
	}
	return out, l.err
}

// replayServe times the serve tier in-process: the registry at its four
// outcomes, the warm handlers on a recorder, and the JSON codec.
func replayServe(l *layerReplay, g *graph.Graph, pool []int32, in inputs, plan [][]int32, out map[string]float64) error {
	srv, err := serve.New(serve.Config{Graph: g, Pool: pool, Model: serverModel})
	if err != nil {
		return err
	}
	defer srv.Close()
	reg := srv.Registry()
	ctx := context.Background()

	// One fresh campaign per call walks miss → extend → prefix → hit.
	call := 0
	c := replayCampaign(in, call)
	expect := func(want serve.Outcome, theta int) func() error {
		return func() error {
			_, got, err := reg.Instance(ctx, c, theta, 1)
			if err == nil && got != want {
				err = fmt.Errorf("registry outcome %s, want %s", got, want)
			}
			return err
		}
	}
	next := func() error { call++; c = replayCampaign(in, call); return nil }
	miss := expect(serve.OutcomeMiss, thetaBase)
	extend := expect(serve.OutcomeExtend, 2*thetaBase)
	out["serve.registry_miss_ms"] = l.measure("serve.Registry.Instance/miss", 1, next, miss).ms()
	out["serve.registry_extend_ms"] = l.measure("serve.Registry.Instance/extend", 1, func() error {
		_ = next()
		return miss()
	}, extend).ms()
	out["serve.registry_prefix_us"] = l.measure("serve.Registry.Instance/prefix", 100, nil, expect(serve.OutcomePrefix, thetaBase)).us()
	out["serve.registry_hit_us"] = l.measure("serve.Registry.Instance/hit", 100, nil, expect(serve.OutcomeHit, 2*thetaBase)).us()

	// Warm handlers: the campaign above is resident at 200k, so a 100k
	// request is a prefix hit and the handler cost is what remains.
	solveBody, err := json.Marshal(solveReq(c, "babp", 10, thetaBase, 1))
	if err != nil {
		return err
	}
	estBody, err := json.Marshal(&serve.EstimateRequest{Campaign: c, Plan: plan, Theta: thetaBase, Seed: 1})
	if err != nil {
		return err
	}
	var lastSolve []byte
	handle := func(path string, body []byte, keep *[]byte) func() error {
		return func() error {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
			if keep != nil {
				*keep = rec.Body.Bytes()
			}
			return nil
		}
	}
	out["serve.handler_solve_us"] = l.measure("serve.Handler/solve", 1, nil, handle("/v1/solve", solveBody, &lastSolve)).us()
	out["serve.handler_estimate_us"] = l.measure("serve.Handler/estimate", 1, nil, handle("/v1/estimate", estBody, nil)).us()

	var resp serve.SolveResponse
	if l.err == nil {
		if err := json.Unmarshal(lastSolve, &resp); err != nil {
			return err
		}
	}
	out["serve.json_decode_us"] = l.measure("json.Decode/SolveRequest", 100, nil, func() error {
		var r serve.SolveRequest
		return json.Unmarshal(solveBody, &r)
	}).us()
	out["serve.json_encode_us"] = l.measure("json.Encode/SolveResponse", 100, nil, func() error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ") // as serve.writeJSON does
		return enc.Encode(&resp)
	}).us()
	return l.err
}

// replayCampaign is the campaign of the i-th registry replay call
// (client id 3 keeps it apart from every workload stream).
func replayCampaign(in inputs, i int) topic.Campaign {
	return coldRequest(in, 3, i).Solve.Campaign
}
