// Election: the paper's opening motivation. An election campaign must
// inform voters about several policy issues — taxation, immigration,
// healthcare — and "it is unlikely to trigger any meaningful actions when
// a user only receives a single element of the campaign". We compare
// three strategies for assigning 30 influencer slots:
//
//   - IM:  pick one message and one topic-agnostic seed set (classical
//     influence maximization);
//   - TIM: pick the single best issue and seed it with topic-aware IM;
//   - OIPA (BAB-P): assign influencers to issues jointly, maximizing the
//     number of voters who hear *enough different issues* to be convinced.
//
// The ground truth is forward Monte-Carlo simulation, independent of the
// samples the solvers optimized on.
//
// Run with: go run ./examples/election
package main

import (
	"context"
	"fmt"
	"log"

	"oipa/internal/cascade"
	"oipa/internal/core"
	"oipa/internal/gen"
	"oipa/internal/logistic"
	"oipa/internal/topic"
)

func main() {
	dataset, err := gen.LastfmSim(1.0, 2024)
	if err != nil {
		log.Fatal(err)
	}

	// Three issues mapped to three of the network's hidden topics. A real
	// deployment would obtain these distributions from a topic model over
	// the messages (see internal/lda); here each message leans strongly
	// on its own issue with some bleed into a related one.
	mk := func(name string, main, related int32) topic.Piece {
		return topic.Piece{Name: name, Dist: topic.Vector{
			Idx: []int32{main, related}, Val: []float64{0.8, 0.2},
		}}
	}
	campaign := topic.Campaign{Name: "election", Pieces: []topic.Piece{
		mk("taxation", 3, 4),
		mk("immigration", 7, 8),
		mk("healthcare", 11, 12),
	}}

	pool, err := gen.PromoterPool(dataset.G, 0.10, 11)
	if err != nil {
		log.Fatal(err)
	}
	problem := &core.Problem{
		G:        dataset.G,
		Campaign: campaign,
		Pool:     pool,
		K:        30,
		// A voter is hard to convince: alpha=3 means one issue alone
		// yields only a ~12% conviction probability, two issues ~27%.
		Model: logistic.Model{Alpha: 3, Beta: 1},
	}
	inst, err := core.Prepare(context.Background(), problem, 100_000, 5)
	if err != nil {
		log.Fatal(err)
	}

	strategies := []struct{ name, method string }{
		{"IM (topic-agnostic, single message)", "im"},
		{"TIM (best single issue)", "tim"},
		{"OIPA BAB-P (joint assignment)", "babp"},
	}
	// An immutable read-side snapshot of the MRR samples: the full-scan
	// estimator on the view cross-checks each solver's (index-based)
	// utility on exactly the samples it optimized over.
	samples := inst.MRR.View()

	fmt.Println("strategy                                estimated        scan   simulated   assignment (tax/imm/health)")
	for _, s := range strategies {
		res, err := core.Solve(context.Background(), inst, s.method, core.DefaultBABOptions())
		if err != nil {
			log.Fatal(err)
		}
		scan, err := samples.EstimateAUScan(res.Plan.Seeds, problem.Model)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := cascade.EstimateAdoptionLayouts(dataset.G, inst.Layouts, res.Plan.Seeds, problem.Model, 20_000, 99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s %9.1f %11.1f %11.1f   %d/%d/%d\n",
			s.name, res.Utility, scan, truth,
			len(res.Plan.Seeds[0]), len(res.Plan.Seeds[1]), len(res.Plan.Seeds[2]))
	}
	fmt.Println("\nOIPA spreads the slots across issues so the same voters hear")
	fmt.Println("several of them — that overlap is what the logistic model rewards.")
}
