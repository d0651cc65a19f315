// Quickstart: solve one OIPA instance end to end in ~40 lines.
//
// We generate a small synthetic social network with topic-aware influence
// probabilities, define a 3-piece campaign, and ask BAB-P for the best
// assignment of 10 promoter slots across the pieces.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"oipa/internal/core"
	"oipa/internal/gen"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

func main() {
	// 1. A lastfm-like network: 1300 users, 15K edges, 20 topics.
	dataset, err := gen.LastfmSim(1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d users, %d edges, %d topics\n",
		dataset.G.N(), dataset.G.M(), dataset.G.Z())

	// 2. A campaign of 3 viral pieces, each about one topic.
	campaign := topic.UniformCampaign("launch", 3, dataset.Z(), xrand.New(7))

	// 3. 10% of users are eligible promoters.
	pool, err := gen.PromoterPool(dataset.G, 0.10, 43)
	if err != nil {
		log.Fatal(err)
	}

	// 4. The OIPA problem: 10 promoter assignments, logistic adoption
	// with alpha=2, beta=1 (a user needs ~2 pieces before adopting in
	// earnest).
	problem := &core.Problem{
		G:        dataset.G,
		Campaign: campaign,
		Pool:     pool,
		K:        10,
		Model:    logistic.Model{Alpha: 2, Beta: 1},
	}

	// 5. Prepare MRR samples (parallel, deterministic) and solve.
	inst, err := core.Prepare(context.Background(), problem, 50_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.SolveBABP(inst, core.DefaultBABOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("expected adopters: %.1f (certified upper bound %.1f)\n",
		res.Utility, res.Upper)
	fmt.Printf("solved in %s with %d branch-and-bound nodes\n",
		res.Elapsed.Round(1e6), res.Stats.Nodes)
	for j, seeds := range res.Plan.Seeds {
		fmt.Printf("piece %q -> promoters %v\n", campaign.Pieces[j].Name, seeds)
	}
}
