// Command oipa-serve runs the OIPA influence-query service: it loads a
// stored graph once, selects a promoter pool, and answers solve /
// estimate / simulate queries concurrently over shared immutable state
// (see internal/serve for the endpoint reference).
//
// Usage:
//
//	oipa-gen -preset lastfm -out lastfm.graph
//	oipa-serve -graph lastfm.graph -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/solve -d '{
//	  "campaign": {"name": "demo", "pieces": [
//	    {"name": "a", "topics": {"0": 1}},
//	    {"name": "b", "topics": {"3": 1}}]},
//	  "method": "babp", "k": 20, "theta": 100000}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"oipa/internal/faultpoint"
	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oipa-serve: ")
	var (
		graphPath = flag.String("graph", "", "input graph file from oipa-gen (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		poolFrac  = flag.Float64("pool", 0.10, "promoter pool fraction")
		poolSeed  = flag.Uint64("poolseed", 2, "promoter pool selection seed")
		ratio     = flag.Float64("ratio", 0.5, "beta/alpha ratio of the default adoption model (beta=1)")
		theta     = flag.Int("theta", 50_000, "default MRR samples per prepared instance")
		maxTheta  = flag.Int("maxtheta", 2_000_000, "reject requests above this many samples")
		layouts   = flag.Int("layouts", 128, "piece-layout cache capacity, in layouts: each holds 12 bytes per edge the piece can cross plus 32 per node, and 8 per graph edge plus 24 per node more once /v1/simulate has used it (layout_bytes at /metrics is the total)")
		instances = flag.Int("instances", 8, "prepared-instance cache capacity")
		sketchK   = flag.Int("sketch-k", 0, "bottom-k coverage sketch size attached to prepared indexes (0 = disabled): estimates and interior solve evaluations at theta >= 8k are served from the sketch in O(k) per seed, with exact-scan fallback and exact re-verification of published utilities")
		memBudget = flag.Int64("mem-budget", 0, "soft resident-bytes budget for prepared artifacts (0 = ungoverned): over budget, cold grown entries are theta-shrunk to their recently requested theta, then fully cold entries are LRU-evicted")
		memEpoch  = flag.Int("mem-epoch", 64, "memory-governor recency window, in registry requests")
		memTick   = flag.Duration("mem-tick", 30*time.Second, "background memory-governor tick interval (negative = request-driven reclaim only)")
		workers   = flag.Int("workers", 0, "async solve workers (0 = GOMAXPROCS)")
		solveWrk  = flag.Int("solve-workers", 1, "default intra-solve search workers for bab/babp (results are bit-identical at any count; requests may override with solve_workers, capped by the admission weight)")
		queue     = flag.Int("queue", 64, "async job backlog bound")
		reqTmo    = flag.Duration("request-timeout", 30*time.Second, "server-side deadline per synchronous request; client timeout_ms is capped by it")
		admitCap  = flag.Int("admit-capacity", 0, "admission semaphore capacity in weight units (solve/simulate=2, estimate=1; 0 = 2x GOMAXPROCS)")
		admitQ    = flag.Int("admit-queue", 0, "admission wait-queue bound; waiters beyond it are shed with 429 (0 = 4x capacity, negative = no queue)")
		grace     = flag.Duration("drain-grace", 15*time.Second, "graceful-drain budget on SIGINT/SIGTERM before in-flight work is hard-canceled")

		logReqs     = flag.Bool("log-requests", true, "emit one JSON log record per heavy request (request id, endpoint, campaign, theta, status, duration) to stderr")
		slowReq     = flag.Duration("slow-request", 5*time.Second, "warn-level slow-request log threshold (0 = disabled)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests traced without ?debug=trace; sampled span trees go to the request log (0 = off, 0.01 = every 100th)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it loopback-only or firewalled")
	)
	var layerPaths []string
	flag.Func("layer", "additional multiplex layer graph file (repeatable; same topic count as -graph, node ids identity-mapped into its universe, so each layer's node count must not exceed the base graph's); requests may then select layer sets with \"layers\", layer 0 being the base graph", func(v string) error {
		layerPaths = append(layerPaths, v)
		return nil
	})
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if armed, err := faultpoint.ArmFromEnv(os.Getenv(faultpoint.EnvVar)); err != nil {
		log.Fatalf("%s: %v", faultpoint.EnvVar, err)
	} else if len(armed) > 0 {
		log.Printf("FAULT INJECTION ARMED (%s): %v", faultpoint.EnvVar, armed)
	}
	g, err := graph.Load(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := gen.PromoterPool(g, *poolFrac, *poolSeed)
	if err != nil {
		log.Fatal(err)
	}
	var muxLayers []graph.MultiplexLayer
	for _, p := range layerPaths {
		lg, err := graph.Load(p)
		if err != nil {
			log.Fatalf("layer %s: %v", p, err)
		}
		log.Printf("layer %s: n=%d m=%d topics=%d", p, lg.N(), lg.M(), lg.Z())
		muxLayers = append(muxLayers, graph.MultiplexLayer{G: lg})
	}
	var logger *slog.Logger
	if *logReqs {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *pprofAddr != "" {
		// net/http/pprof registers on http.DefaultServeMux; serving it on
		// its own listener keeps the profiling surface off the service
		// address.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	srv, err := serve.New(serve.Config{
		Graph:            g,
		Layers:           muxLayers,
		Pool:             pool,
		Model:            logistic.Model{Alpha: 1 / *ratio, Beta: 1},
		DefaultTheta:     *theta,
		MaxTheta:         *maxTheta,
		LayoutCapacity:   *layouts,
		InstanceCapacity: *instances,
		SketchK:          *sketchK,
		MemBudget:        *memBudget,
		MemEpoch:         *memEpoch,
		MemTick:          *memTick,
		Workers:          *workers,
		SolveWorkers:     *solveWrk,
		QueueDepth:       *queue,
		RequestTimeout:   *reqTmo,
		AdmitCapacity:    *admitCap,
		AdmitQueue:       *admitQ,
		Logger:           logger,
		SlowRequest:      *slowReq,
		TraceSample:      *traceSample,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("graph %s: n=%d m=%d topics=%d, pool=%d promoters", *graphPath, g.N(), g.M(), g.Z(), len(pool))
	if len(muxLayers) > 0 {
		log.Printf("multiplex serving: %d layers (base graph is layer 0)", len(muxLayers)+1)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sigCtx.Done()
		log.Printf("draining (grace %s)", *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Application drain first: flip /readyz, refuse new heavy work,
		// cancel the async backlog, wait out in-flight solves — then let
		// the HTTP layer close idle connections and finish the rest.
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		srv.Close()
	}()
	log.Printf("listening on %s", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Print("drained")
}
