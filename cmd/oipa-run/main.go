// Command oipa-run solves one OIPA instance on a stored graph: it draws a
// uniform single-topic campaign, selects a promoter pool, samples MRR
// sets, runs the chosen solver and prints the assignment plan with its
// estimated and (optionally) simulated adoption utility.
//
// Usage:
//
//	oipa-run -graph lastfm.graph -method babp -k 50 -l 3 -theta 100000
//	oipa-run -graph lastfm.graph -method bab -k 20 -simulate
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"oipa/internal/cascade"
	"oipa/internal/core"
	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oipa-run: ")
	var (
		graphPath    = flag.String("graph", "", "input graph file from oipa-gen (required)")
		campaignPath = flag.String("campaign", "", "campaign spec JSON (default: uniform random pieces)")
		method       = flag.String("method", "babp", "solver: "+strings.Join(core.Methods(), ", "))
		k            = flag.Int("k", 50, "promoter assignment budget")
		l            = flag.Int("l", 3, "number of campaign pieces (ignored with -campaign)")
		theta        = flag.Int("theta", 100000, "MRR samples")
		ratio        = flag.Float64("ratio", 0.5, "beta/alpha ratio of the logistic adoption model (beta=1)")
		eps          = flag.Float64("eps", 0.5, "BAB-P progressive threshold decay")
		tol          = flag.Float64("tol", 0.01, "branch-and-bound termination gap")
		poolFrac     = flag.Float64("pool", 0.10, "promoter pool fraction")
		seed         = flag.Uint64("seed", 1, "randomness seed")
		simulate     = flag.Bool("simulate", false, "validate the plan by forward Monte-Carlo simulation")
		simRuns      = flag.Int("simruns", 10000, "simulation runs for -simulate")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		log.Fatal("missing -graph")
	}
	g, err := graph.Load(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d topics=%d\n", g.N(), g.M(), g.Z())

	var campaign topic.Campaign
	if *campaignPath != "" {
		campaign, err = topic.LoadCampaign(*campaignPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("campaign %q: %d pieces from %s\n", campaign.Name, campaign.L(), *campaignPath)
	} else {
		campaign = topic.UniformCampaign("campaign", *l, g.Z(), xrand.New(*seed))
	}
	pool, err := gen.PromoterPool(g, *poolFrac, *seed+1)
	if err != nil {
		log.Fatal(err)
	}
	prob := &core.Problem{
		G:        g,
		Campaign: campaign,
		Pool:     pool,
		K:        *k,
		Model:    logistic.Model{Alpha: 1 / *ratio, Beta: 1},
	}
	inst, err := core.Prepare(context.Background(), prob, *theta, *seed+2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled %d MRR sets in %s (total size %d, %d shard arenas)\n",
		inst.MRR.Theta(), inst.SampleTime.Round(1e6), inst.MRR.TotalSize(), inst.MRR.Shards())

	// The search oipa-serve and oipa-exp run, with -eps and -tol applied.
	opts := core.DefaultBABOptions()
	opts.Epsilon, opts.Tolerance = *eps, *tol
	res, err := core.Solve(context.Background(), inst, strings.ToLower(*method), opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmethod   : %s\n", res.Method)
	fmt.Printf("utility  : %.4f (MRR estimate)\n", res.Utility)
	if res.Upper > 0 {
		fmt.Printf("upper    : %.4f (greedy bound: OPT ≤ upper/(1−1/e), /(1−1/e−ε) for babp)\n", res.Upper)
	}
	fmt.Printf("elapsed  : %s\n", res.Elapsed.Round(1e6))
	if res.Stats.BoundEvals > 0 {
		fmt.Printf("search   : %d nodes, %d bound evals, %d tau evals\n",
			res.Stats.Nodes, res.Stats.BoundEvals, res.Stats.TauEvals)
	}
	for j, seeds := range res.Plan.Seeds {
		fmt.Printf("piece %-2d : %d promoters %v\n", j, len(seeds), seeds)
	}

	if *simulate {
		pieceProbs := make([][]float64, campaign.L())
		for j, piece := range campaign.Pieces {
			pieceProbs[j] = g.PieceProbs(piece.Dist)
		}
		mc, err := cascade.EstimateAdoption(context.Background(), g, pieceProbs, res.Plan.Seeds, prob.Model, *simRuns, *seed+4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated: %.4f (forward Monte-Carlo, %d runs)\n", mc, *simRuns)
	}
}
