// Youtube: the paper's second motivating scenario. A channel promotes
// five viral videos on a sparse retweet-style network; because social
// media content is short-lived, a user only subscribes after watching
// *multiple* videos from the channel. The adoption threshold α controls
// how many: we sweep it and watch the gap between single-video
// optimization (TIM) and joint assignment (OIPA BAB-P) widen as
// subscription gets harder — the paper's Fig. 6 effect (smaller β/α ⇒
// larger advantage).
//
// Run with: go run ./examples/youtube
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
	// A tweet-like sparse network: scale 1/500 keeps this demo quick.
	dataset, err := gen.TweetSim(0.002, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d users, %d edges, %d topics (avg degree %.1f)\n",
		dataset.G.N(), dataset.G.M(), dataset.G.Z(), dataset.G.AvgDegree())

	// Five videos, each with its own topical appeal.
	campaign := topic.UniformCampaign("channel", 5, dataset.Z(), xrand.New(3))
	pool, err := gen.PromoterPool(dataset.G, 0.10, 8)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nbeta/alpha   TIM (best video)   OIPA BAB-P   advantage")
	for _, ratio := range []float64{0.7, 0.5, 0.3} {
		problem := &core.Problem{
			G:        dataset.G,
			Campaign: campaign,
			Pool:     pool,
			K:        40,
			Model:    logistic.Model{Alpha: 1 / ratio, Beta: 1},
		}
		inst, err := core.Prepare(context.Background(), problem, 100_000, 21)
		if err != nil {
			log.Fatal(err)
		}
		tim, err := core.SolveTIM(inst)
		if err != nil {
			log.Fatal(err)
		}
		oipa, err := core.SolveBABP(inst, core.DefaultBABOptions())
		if err != nil {
			log.Fatal(err)
		}
		adv := 0.0
		if tim.Utility > 0 {
			adv = (oipa.Utility/tim.Utility - 1) * 100
		}
		fmt.Printf("%10.1f %18.1f %12.1f %+9.0f%%\n",
			ratio, tim.Utility, oipa.Utility, adv)
	}
	fmt.Println("\nHarder subscriptions (smaller beta/alpha) need overlapping reach,")
	fmt.Println("which single-video strategies cannot produce.")
}
