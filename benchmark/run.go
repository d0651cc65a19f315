package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/obs"
	"oipa/internal/serve"
)

// Fixed set-up, the same for every workload: one dblp-shaped graph
// (lastfm×1 is 1 300 nodes, where a warm solve is pure HTTP).
const (
	graphPreset = "dblp"
	graphScale  = "0.05"
	graphSeed   = "42"
)

// harness holds what every run shares: the built binaries, the temp
// graph file, and the graph loaded into this process for the oracle and
// the layer replay.
type harness struct {
	root   string // repository root (where module oipa lives)
	genBin string
	srvBin string
	buildS float64

	graphPath string
	g         *graph.Graph
	pool      []int32
}

// newHarness builds cmd/oipa-gen and cmd/oipa-serve from the tree.
func newHarness(ctx context.Context, root string) (*harness, error) {
	work := filepath.Join(root, "benchmark", ".build") // run.sh's build directory; "go build ./..." skips dot directories
	h := &harness{
		root:      root,
		genBin:    filepath.Join(work, "bin", "oipa-gen"),
		srvBin:    filepath.Join(work, "bin", "oipa-serve"),
		graphPath: filepath.Join(work, fmt.Sprintf("graph-%d.bin", os.Getpid())),
	}
	if err := os.MkdirAll(filepath.Join(work, "bin"), 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(work, "bin")+string(filepath.Separator), "./cmd/oipa-gen", "./cmd/oipa-serve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/oipa-gen ./cmd/oipa-serve in %s: %w\n%s", root, err, out)
	}
	h.buildS = time.Since(start).Seconds()
	return h, nil
}

// close removes the temp graph.
func (h *harness) close() { os.Remove(h.graphPath) }

// generateGraph runs the real oipa-gen; the first call also loads the
// file into this process.
func (h *harness) generateGraph(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, h.genBin, "-preset", graphPreset, "-scale", graphScale, "-seed", graphSeed, "-out", h.graphPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("oipa-gen: %w\n%s", err, out)
	}
	if h.g != nil {
		return nil
	}
	g, err := graph.Load(h.graphPath)
	if err != nil {
		return err
	}
	pool, err := gen.PromoterPool(g, serverPoolFrac, serverPoolSeed)
	if err != nil {
		return err
	}
	h.g, h.pool = g, pool
	return nil
}

func (h *harness) inputs(seed uint64) inputs {
	return inputs{Seed: seed, Z: h.g.Z(), Pool: h.pool}
}

// setUp is what a deployment pays before the first measured request:
// generate the graph, boot oipa-serve to /readyz, send the workload's
// warm-up requests. The caller stops the returned server.
func (h *harness) setUp(ctx context.Context, w *workload, seed uint64) (*serverProc, float64, error) {
	start := time.Now()
	if err := h.generateGraph(ctx); err != nil {
		return nil, 0, err
	}
	srv, err := startServer(ctx, h.srvBin, h.graphPath)
	if err != nil {
		return nil, 0, err
	}
	if err := warmup(ctx, srv.base, w.Warmup(h.inputs(seed))); err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, time.Since(start).Seconds(), nil
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Clients   int                `json:"clients"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // the first few, for the log
	ShapeErr  string             `json:"shape_error,omitempty"`
	MeasuredS float64            `json:"measured_s"`
	Metrics   map[string]float64 `json:"metrics"`
	// The one-second windows behind throughput_rps and cpu_ms_per_req:
	// a stall shows here as a few slow windows, a slower build as all.
	WindowRPS   []float64 `json:"window_rps,omitempty"`
	WindowCPUMS []float64 `json:"window_cpu_ms_per_req,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && r.ShapeErr == "" }

const maxFailuresKept = 5

// judge runs the oracle over the samples: invariants on every answer,
// exact recomputation on the seeded one in sixteen.
func (r *runResult) judge(o *oracle, seed uint64, samples []sample) {
	r.Attempted = len(samples)
	for i := range samples {
		s := &samples[i]
		err := o.check(s)
		if err == nil && sampled(seed, s) {
			err = o.recompute(s)
		}
		if err != nil {
			s.Failed = true
			r.Failed++
			if len(r.Failures) < maxFailuresKept {
				r.Failures = append(r.Failures, fmt.Sprintf("client %d request %d: %v", s.Client, s.Index, err))
			}
		}
	}
}

// checkShape holds /metrics against the traffic the workload promises:
// nothing shed, panicked, degraded or coalesced, and exactly the
// prepares, extends and prefix hits the sent requests add up to.
func checkShape(snap *serve.MetricsSnapshot, sent []request) string {
	var want struct{ prepares, extends, prefix int64 }
	for _, r := range sent {
		switch r.Expect {
		case expectMiss:
			want.prepares++
		case expectExtend:
			want.extends++
		case expectPrefix:
			want.prefix++
		}
	}
	switch {
	case snap.Server.ShedTotal != 0 || snap.Server.PanicsTotal != 0 || snap.Server.DegradedSolves != 0 || snap.Solves.Coalesced != 0:
		return fmt.Sprintf("shed_total %d panics_total %d degraded_solves %d coalesced_solves %d, all must be 0",
			snap.Server.ShedTotal, snap.Server.PanicsTotal, snap.Server.DegradedSolves, snap.Solves.Coalesced)
	case snap.Registry.Prepares != want.prepares:
		return fmt.Sprintf("prepares %d, the requests sent make %d", snap.Registry.Prepares, want.prepares)
	case snap.Registry.Extends != want.extends:
		return fmt.Sprintf("extends %d, the requests sent make %d", snap.Registry.Extends, want.extends)
	case snap.Registry.PrefixHits != want.prefix:
		return fmt.Sprintf("prefix_hits %d, the requests sent make %d", snap.Registry.PrefixHits, want.prefix)
	}
	return ""
}

func sentRequests(w *workload, in inputs, samples []sample) []request {
	sent := w.Warmup(in)
	for _, s := range samples {
		sent = append(sent, s.Req)
	}
	return sent
}

func latenciesMS(samples []sample) []float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = float64(s.Latency) / float64(time.Millisecond)
	}
	return ms
}

// runTimed is the end-to-end pass: tracing off, the closed loop held for
// the given time, every end-to-end metric read from outside the server.
func (h *harness) runTimed(ctx context.Context, w *workload, seed uint64, seconds int) (*runResult, error) {
	srv, setupS, err := h.setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	in := h.inputs(seed)
	meter := startCPUMeter(srv)
	samples, wall := drive(ctx, srv.base, w, in, limit{Duration: time.Duration(seconds) * time.Second}, false)
	ticks, err := meter.stop()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	snap, err := srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	srv.stop() // the oracle below must not share the cores with a live server

	res := &runResult{Workload: w.Name, Seed: seed, Clients: w.Clients, MeasuredS: wall.Seconds()}
	res.judge(newOracle(h.g, h.pool), seed, samples)
	res.ShapeErr = checkShape(snap, sentRequests(w, in, samples))
	// The last second is left out: a client that is already past the time
	// limit idles there while the other finishes its request.
	rps, cpuMS := windowRates(ticks[:min(len(ticks), seconds)], samples)
	if len(rps) == 0 {
		return nil, fmt.Errorf("%s: no full one-second window in a %d s run", w.Name, seconds)
	}
	res.WindowRPS, res.WindowCPUMS = rps, cpuMS
	res.Metrics = map[string]float64{
		"req_p50_ms":     median(latenciesMS(samples)),
		"throughput_rps": median(rps),
		"cpu_ms_per_req": median(cpuMS),
		"rss_peak_mb":    rss,
		"setup_s":        setupS,
	}
	return res, nil
}

// cpuTick is the server's CPU reading at one window boundary.
type cpuTick struct {
	At  time.Time
	CPU float64 // seconds, user+system
}

// cpuMeter reads the server child's CPU once a second while the closed
// loop runs, so the run can be cut into one-second windows afterwards.
type cpuMeter struct {
	quit  chan struct{}
	done  chan struct{}
	ticks []cpuTick
	err   error
}

func startCPUMeter(srv *serverProc) *cpuMeter {
	m := &cpuMeter{quit: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		cpu, err := srv.cpuSeconds()
		if err != nil && m.err == nil {
			m.err = err
		}
		m.ticks = append(m.ticks, cpuTick{At: time.Now(), CPU: cpu})
	}
	read()
	go func() {
		defer close(m.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-m.quit:
				return
			}
		}
	}()
	return m
}

func (m *cpuMeter) stop() ([]cpuTick, error) {
	close(m.quit)
	<-m.done
	return m.ticks, m.err
}

// windowRates cuts the run at the meter's ticks and returns, per window,
// the requests served per second and the server CPU per request.
// Requests are counted fractionally — one that ran 30% inside a window
// adds 0.3 to it — so a window's rate does not jump with which side of
// a boundary a completion falls. Failed requests add nothing. The
// callers report the median window: a neighbour's burst on a shared box
// slows a few windows of a run, not most of them.
func windowRates(ticks []cpuTick, samples []sample) (rps, cpuMS []float64) {
	for k := 0; k+1 < len(ticks); k++ {
		lo, hi := ticks[k].At, ticks[k+1].At
		served := 0.0
		for i := range samples {
			s := &samples[i]
			if s.Failed || s.Latency <= 0 {
				continue
			}
			a, b := s.Start, s.Start.Add(s.Latency)
			if a.Before(lo) {
				a = lo
			}
			if b.After(hi) {
				b = hi
			}
			if b.After(a) {
				served += float64(b.Sub(a)) / float64(s.Latency)
			}
		}
		if served == 0 {
			continue
		}
		rps = append(rps, served/hi.Sub(lo).Seconds())
		cpuMS = append(cpuMS, (ticks[k+1].CPU-ticks[k].CPU)*1000/served)
	}
	return rps, cpuMS
}

// traceOf extracts the span tree a ?debug=trace answer carries.
func traceOf(s *sample) *obs.SpanTree {
	var body struct {
		Trace *obs.SpanTree `json:"trace"`
	}
	if s.Err != nil || json.Unmarshal(s.Body, &body) != nil {
		return nil
	}
	return body.Trace
}

// tracedPass replays a fixed request list against a fresh server, first
// untraced, then — on another fresh server — with ?debug=trace on every
// request. Fixed work makes the /metrics counts exact; the two passes'
// p50 difference is the tracing overhead.
func (h *harness) tracedPass(ctx context.Context, tr *tracer, w *workload, seed uint64, seconds int) (*runResult, error) {
	in := h.inputs(seed)
	lim := limit{Count: w.TracePerSecond * seconds}
	pass := func(traced bool) ([]sample, *serve.MetricsSnapshot, error) {
		srv, _, err := h.setUp(ctx, w, seed)
		if err != nil {
			return nil, nil, err
		}
		defer srv.stop()
		samples, _ := drive(ctx, srv.base, w, in, lim, traced)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		snap, err := srv.metrics(ctx)
		return samples, snap, err
	}
	plain, _, err := pass(false)
	if err != nil {
		return nil, err
	}
	samples, snap, err := pass(true)
	if err != nil {
		return nil, err
	}

	res := &runResult{Workload: w.Name, Seed: seed, Clients: w.Clients, Traced: true}
	res.judge(newOracle(h.g, h.pool), seed, samples)
	res.ShapeErr = checkShape(snap, sentRequests(w, in, samples))

	first := len(tr.spans)
	for i := range samples {
		s := &samples[i]
		if tree := traceOf(s); tree != nil {
			tr.adoptRequest(s, tree)
		} else if res.correct() {
			res.ShapeErr = fmt.Sprintf("client %d request %d: traced answer carries no span tree", s.Client, s.Index)
		}
	}
	sum := summarizeSpans(tr.spans[first:])

	lat := latenciesMS(samples)
	p50, plainP50 := median(lat), median(latenciesMS(plain))
	res.Metrics = map[string]float64{
		"serve.self_handler_ms":    sum.SelfUS[groupHandler] / 1000,
		"serve.self_admit_ms":      sum.SelfUS[groupAdmit] / 1000,
		"serve.self_registry_ms":   sum.SelfUS[groupRegistry] / 1000,
		"serve.self_solve_ms":      sum.SelfUS[groupSolve] / 1000,
		"serve.self_estimate_ms":   sum.SelfUS[groupEstimate] / 1000,
		"serve.http_overhead_us":   sum.SelfUS[groupHTTP],
		"serve.span_coverage":      sum.Coverage,
		"serve.admit_wait_ms":      snap.Latency.AdmitWait.MeanMS,
		"serve.req_p95_ms":         percentile(lat, 95),
		"serve.req_p95_beyond":     float64(samplesBeyond(lat, 95)),
		"serve.gc_cycles":          float64(snap.Runtime.GCCycles),
		"serve.gc_pause_total_ms":  snap.Runtime.GCPauseTotalMS,
		"trace.overhead_pct":       100 * (p50 - plainP50) / plainP50,
		"serve.prepares":           float64(snap.Registry.Prepares),
		"serve.extends":            float64(snap.Registry.Extends),
		"serve.prefix_hits":        float64(snap.Registry.PrefixHits),
		"serve.instance_hits":      float64(snap.Registry.InstanceHits),
		"serve.instance_evictions": float64(snap.Registry.InstanceEvictions),
		"serve.layout_hits":        float64(snap.Registry.LayoutHits),
		"serve.layout_misses":      float64(snap.Registry.LayoutMisses),
	}
	return res, nil
}
