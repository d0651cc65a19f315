// Command benchmark is the repository's one ruler: it builds the real
// oipa-gen and oipa-serve from the tree, generates one graph, boots the
// server as a child process at its default flags, drives it closed-loop
// over loopback HTTP, checks every answer, and reports end-to-end and
// per-layer metrics by name with their units. See README.md.
//
// One run of one workload (the contract BENCHMARK.json describes; the
// last line of standard output is one JSON object):
//
//	benchmark -workload cold_prepare -seed 1 -seconds 20 -trace 0
//
// The whole table — every workload, interleaved repetitions, the traced
// pass and the layer replay — into results.json and trace.json:
//
//	benchmark -seed 1 -out benchmark/out/results.json
//
// Two result files against each other:
//
//	benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	var (
		workloadName = flag.String("workload", "", "run this one workload once and print the contract JSON line (empty: run the whole table)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds      = flag.Int("seconds", 20, "measured seconds per run")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced pass")
		out          = flag.String("out", "", "whole table: results file (default <root>/benchmark/out/results.json)")
		root         = flag.String("root", "", "repository root (default: the working directory, or its parent when run from benchmark/)")
		doCompare    = flag.Bool("compare", false, "compare two results files given as arguments; exit 1 if the second regressed")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two results files")
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		log.Fatal("-seconds must be positive")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *root, *workloadName, *seed, *seconds, *trace, *out)
	stop()
	os.Exit(code)
}

// run does the work behind main so that every deferred clean-up — the
// server child, the temp graph — happens before the process exits, on
// every path including an interrupt.
func run(ctx context.Context, root, workloadName string, seed uint64, seconds, trace int, out string) int {
	root, err := findRoot(root)
	if err != nil {
		log.Print(err)
		return 1
	}
	selected := workloads
	if workloadName != "" {
		w, err := workloadByName(workloadName)
		if err != nil {
			log.Print(err)
			return 1
		}
		selected = []workload{*w}
	}
	for _, w := range selected {
		if w.Clients > runtime.NumCPU() {
			log.Printf("workload %s drives %d clients on %d CPUs: refusing to measure an oversubscribed client", w.Name, w.Clients, runtime.NumCPU())
			return 1
		}
	}
	h, err := newHarness(ctx, root)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer h.close()
	if err := h.generateGraph(ctx); err != nil {
		log.Print(err)
		return 1
	}
	outDir := filepath.Join(root, "benchmark", "out")

	if workloadName != "" {
		return runOne(ctx, h, &selected[0], seed, seconds, trace == 1, outDir)
	}
	if out == "" {
		out = filepath.Join(outDir, "results.json")
	}
	return runTable(ctx, h, seed, seconds, out, filepath.Join(outDir, "trace.json"))
}

// findRoot locates the directory holding module oipa's go.mod.
func findRoot(root string) (string, error) {
	candidates := []string{root}
	if root == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "oipa-serve", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no cmd/oipa-serve under %v: run from the repository root or pass -root", candidates)
}

// contractLine is the object the contract wants as the last line of
// standard output.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne is one run of one workload: the end-to-end metrics with
// tracing off, or every per-layer metric from the traced pass plus the
// layer replay.
func runOne(ctx context.Context, h *harness, w *workload, seed uint64, seconds int, traced bool, outDir string) int {
	var res *runResult
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		tr := newTracer()
		if res, err = h.tracedPass(ctx, tr, w, seed, seconds); err == nil {
			var layers map[string]float64
			if layers, err = replayLayers(tr, h.g, h.pool, h.inputs(seed)); err == nil {
				for k, v := range layers {
					res.Metrics[k] = v
				}
				err = tr.write(filepath.Join(outDir, "trace.json"))
			}
		}
	} else {
		res, err = h.runTimed(ctx, w, seed, seconds)
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	metrics, missing := pick(defs, res.Metrics)
	if len(missing) > 0 {
		log.Printf("metrics not measured: %v", missing)
		return 1
	}
	for _, f := range res.Failures {
		log.Printf("failed: %s", f)
	}
	if res.ShapeErr != "" {
		log.Printf("traffic shape: %s", res.ShapeErr)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %16.4f %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(contractLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// repetitions is fixed: every reading of the whole table is a median of
// three, and spread and -compare's verdicts mean what they mean for three.
const repetitions = 3

// runTable measures every workload: interleaved repetitions (w1 w2 w3
// w4, w1 ...) so drift on a shared box lands on all workloads alike,
// then one traced pass per workload and one layer replay.
func runTable(ctx context.Context, h *harness, seed uint64, seconds int, resultsPath, tracePath string) int {
	timed := map[string][]*runResult{}
	for rep := 0; rep < repetitions; rep++ {
		for i := range workloads {
			w := &workloads[i]
			log.Printf("repetition %d/%d: %s", rep+1, repetitions, w.Name)
			r, err := h.runTimed(ctx, w, seed, seconds)
			if err != nil {
				log.Print(err)
				return 1
			}
			timed[w.Name] = append(timed[w.Name], r)
		}
	}
	tr := newTracer()
	res := &results{Env: h.environment(seed, seconds), Workloads: map[string]*workloadResult{}}
	failed := false
	for i := range workloads {
		w := &workloads[i]
		log.Printf("traced pass: %s", w.Name)
		traced, err := h.tracedPass(ctx, tr, w, seed, seconds)
		if err != nil {
			log.Print(err)
			return 1
		}
		wr := summarize(w, timed[w.Name], traced)
		res.Workloads[w.Name] = wr
		failed = failed || !wr.Correct
	}
	log.Print("layer replay")
	layers, err := replayLayers(tr, h.g, h.pool, h.inputs(seed))
	if err != nil {
		log.Print(err)
		return 1
	}
	res.Layers, _ = pick(perLayer, layers)
	if err := writeJSONFile(resultsPath, res); err != nil {
		log.Print(err)
		return 1
	}
	if err := tr.write(tracePath); err != nil {
		log.Print(err)
		return 1
	}
	printTable(os.Stdout, res)
	log.Printf("wrote %s and %s", resultsPath, tracePath)
	if failed {
		log.Print("some answers failed their checks: see fail_share and the runs' failures in the results file")
		return 1
	}
	return 0
}
