// Command oipa-exp regenerates the paper's evaluation tables and figures
// (§VI) on the synthetic dataset substitutes. Each experiment prints the
// same rows/series the paper plots. Absolute numbers differ from the
// paper's testbed; the reproduction targets are the shapes — method
// orderings, trends in k, ℓ and β/α, and the BAB-P speedup.
//
// Usage:
//
//	oipa-exp -exp table3                 # dataset statistics + sampling time
//	oipa-exp -exp params                 # Table IV parameter grid
//	oipa-exp -exp fig3                   # BAB-P utility vs epsilon
//	oipa-exp -exp fig4 -datasets lastfm  # utility & time vs k
//	oipa-exp -exp fig5                   # utility & time vs l
//	oipa-exp -exp fig6                   # utility vs beta/alpha
//	oipa-exp -exp speedup                # BAB-P speedup over BAB (from fig4 sweep)
//	oipa-exp -exp multiplex              # utility vs diffusion layer count
//	oipa-exp -exp all -small             # everything, at smoke-test scale
//
// The multiplex-check mode is different: it loads stored graph files,
// re-runs a default-flag oipa-serve's multiplex solve locally, replays
// every sample through the combined-graph reduction, and prints the
// bundle as JSON — CI diffs it against the live /v1/solve answer:
//
//	oipa-exp -exp multiplex-check -graph base.graph -layer l2.graph \
//	  -check-l 2 -check-k 5 -theta 2000 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"oipa/internal/exp"
	"oipa/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oipa-exp: ")
	var (
		which    = flag.String("exp", "all", "experiment: table3, params, fig3, fig4, fig5, fig6, speedup, multiplex, multiplex-check, all")
		datasets = flag.String("datasets", "lastfm,dblp,tweet", "comma-separated dataset presets")
		small    = flag.Bool("small", false, "use smoke-test scale (seconds instead of minutes)")
		theta    = flag.Int("theta", 0, "override MRR sample count (0 = preset default; multiplex-check default 2000)")
		scale    = flag.Float64("scale", 0, "override dataset scale (0 = preset default)")
		seed     = flag.Uint64("seed", 1, "randomness seed")
		kList    = flag.String("k", "10,20,30,40,50,60,70,80,90,100", "k sweep for fig4")
		lList    = flag.String("l", "1,2,3,4,5", "l sweep for fig5")
		muxMax   = flag.Int("layers", 3, "layer-count sweep ceiling for the multiplex figure")

		graphPath = flag.String("graph", "", "multiplex-check: base graph file from oipa-gen")
		checkL    = flag.Int("check-l", 2, "multiplex-check: campaign pieces (single-topic, topics 0..l-1)")
		checkK    = flag.Int("check-k", 5, "multiplex-check: seed budget")
	)
	var layerPaths []string
	flag.Func("layer", "multiplex-check: additional layer graph file (repeatable)", func(v string) error {
		layerPaths = append(layerPaths, v)
		return nil
	})
	flag.Parse()

	if *which == "multiplex-check" {
		if *graphPath == "" {
			log.Fatal("multiplex-check needs -graph")
		}
		th := *theta
		if th <= 0 {
			th = 2000
		}
		chk, err := exp.CheckMultiplex(*graphPath, layerPaths, *checkL, *checkK, th, *seed)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(chk); err != nil {
			log.Fatal(err)
		}
		return
	}

	configs := make([]exp.Config, 0, 3)
	for _, name := range strings.Split(*datasets, ",") {
		p := gen.Preset(strings.TrimSpace(name))
		var c exp.Config
		if *small {
			c = exp.SmallConfig(p)
		} else {
			c = exp.DefaultConfig(p)
		}
		if *theta > 0 {
			c.Theta = *theta
		}
		if *scale > 0 {
			c.Scale = *scale
		}
		c.Seed = *seed
		configs = append(configs, c)
	}

	ks := parseInts(*kList)
	ls := parseInts(*lList)
	if *small {
		ks = shrink(ks)
		ls = shrinkTo(ls, 3)
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "params":
			exp.ParamsTable(os.Stdout)
		case "table3":
			rows, err := exp.TableIII(configs)
			if err != nil {
				log.Fatal(err)
			}
			exp.RenderTableIII(os.Stdout, rows)
		case "fig3":
			for _, c := range configs {
				rows, err := exp.Figure3(c, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
				if err != nil {
					log.Fatal(err)
				}
				exp.RenderRows(os.Stdout, fmt.Sprintf("Figure 3 (%s): BAB-P utility vs epsilon", c.Preset), rows)
			}
		case "fig4", "speedup":
			var all []exp.Row
			for _, c := range configs {
				rows, err := exp.Figure4(c, ks)
				if err != nil {
					log.Fatal(err)
				}
				all = append(all, rows...)
				if name == "fig4" {
					exp.RenderRows(os.Stdout, fmt.Sprintf("Figure 4 (%s): vary k", c.Preset), rows)
				}
			}
			exp.RenderSpeedups(os.Stdout, exp.Speedups(all))
		case "fig5":
			for _, c := range configs {
				rows, err := exp.Figure5(c, ls)
				if err != nil {
					log.Fatal(err)
				}
				exp.RenderRows(os.Stdout, fmt.Sprintf("Figure 5 (%s): vary l", c.Preset), rows)
			}
		case "fig6":
			for _, c := range configs {
				rows, err := exp.Figure6(c, []float64{0.3, 0.5, 0.7})
				if err != nil {
					log.Fatal(err)
				}
				exp.RenderRows(os.Stdout, fmt.Sprintf("Figure 6 (%s): vary beta/alpha", c.Preset), rows)
			}
		case "multiplex":
			for _, c := range configs {
				rows, err := exp.FigureMultiplex(c, *muxMax)
				if err != nil {
					log.Fatal(err)
				}
				exp.RenderRows(os.Stdout, fmt.Sprintf("Multiplex (%s): single vs multi-layer spread", c.Preset), rows)
			}
		default:
			log.Fatalf("unknown experiment %q", name)
		}
		fmt.Printf("[%s done in %s]\n\n", name, exp.Elapsed(start))
	}

	if *which == "all" {
		for _, name := range []string{"params", "table3", "fig3", "fig4", "fig5", "fig6", "multiplex"} {
			run(name)
		}
		return
	}
	run(*which)
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err == nil && v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// shrink halves a sweep for smoke-test runs (first, middle, last).
func shrink(xs []int) []int {
	if len(xs) <= 3 {
		return xs
	}
	return []int{xs[0], xs[len(xs)/2], xs[len(xs)-1]}
}

func shrinkTo(xs []int, max int) []int {
	if len(xs) <= max {
		return xs
	}
	return xs[:max]
}
