// Paperexample walks through the paper's running example (Fig. 1 and
// Examples 1–3) with this library, reproducing every number the paper
// reports:
//
//   - σ({{a},{e}}) = 1.05 (Example 1),
//   - the non-submodularity gap 0.57 > 0.48 (Example 2),
//   - the MRR estimate 1.16 from the four Table II samples (Example 3),
//   - and finally BAB recovering the optimal assignment t1→a, t2→e.
//
// Run with: go run ./examples/paperexample
package main

import (
	"context"
	"fmt"
	"log"

	"oipa/internal/cascade"
	"oipa/internal/core"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
)

func main() {
	// Fig. 1: five users a..e, two topics ("tax", "healthcare"), six
	// deterministic edges.
	names := []string{"a", "b", "c", "d", "e"}
	b := graph.NewBuilder(5, 2)
	type edge struct {
		u, v int32
		z    int32
	}
	for _, e := range []edge{
		{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, // the t1 chain a->b->c->d
		{4, 3, 1}, {3, 2, 1}, {2, 1, 1}, // the t2 chain e->d->c->b
	} {
		if err := b.AddEdge(e.u, e.v, topic.SingleTopic(e.z)); err != nil {
			log.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	model := logistic.Model{Alpha: 3, Beta: 1}
	pieces := [][]float64{
		g.PieceProbs(topic.SingleTopic(0)),
		g.PieceProbs(topic.SingleTopic(1)),
	}

	show := func(label string, plan [][]int32) float64 {
		sigma, err := cascade.ExactAdoptionDeterministic(g, pieces, plan, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  σ(%-14s) = %.2f\n", label, sigma)
		return sigma
	}

	fmt.Println("Example 1: adoption utility of the plan {{a},{e}}")
	full := show("{{a},{e}}", [][]int32{{0}, {4}})

	fmt.Println("\nExample 2: σ is not submodular")
	onlyA := show("{{a},∅}", [][]int32{{0}, nil})
	onlyE := show("{∅,{e}}", [][]int32{nil, {4}})
	fmt.Printf("  δ_{{a},∅}({∅,{e}}) = %.2f > δ_{∅,∅}({∅,{e}}) = %.2f\n",
		full-onlyA, onlyE)

	fmt.Println("\nExample 3: MRR estimation with the Table II samples (roots c,a,b,c)")
	mrr, err := rrset.SampleMRRWithRoots(g, pieces, []int32{2, 0, 1, 2}, 1)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < mrr.Theta(); i++ {
		fmt.Printf("  R%d (root %s): R^1=%s R^2=%s\n", i+1, names[mrr.Root(i)],
			nameSet(names, mrr.Set(i, 0)), nameSet(names, mrr.Set(i, 1)))
	}
	est, err := mrr.EstimateAUScan([][]int32{{0}, {4}}, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  estimated σ({{a},{e}}) = %.2f (paper: 1.16)\n", est)

	fmt.Println("\nBranch-and-bound on the full instance (k=2, θ=20000):")
	problem := &core.Problem{
		G: g,
		Campaign: topic.Campaign{Name: "paper", Pieces: []topic.Piece{
			{Name: "t1", Dist: topic.SingleTopic(0)},
			{Name: "t2", Dist: topic.SingleTopic(1)},
		}},
		Pool:  []int32{0, 1, 2, 3, 4},
		K:     2,
		Model: model,
	}
	inst, err := core.Prepare(context.Background(), problem, 20000, 7)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Solve(context.Background(), inst, "bab", core.BABOptions{Tolerance: 0})
	if err != nil {
		log.Fatal(err)
	}
	for j, seeds := range res.Plan.Seeds {
		fmt.Printf("  piece t%d -> %s\n", j+1, nameSet(names, seeds))
	}
	fmt.Printf("  estimated utility %.3f (exact value %.3f)\n", res.Utility, full)
}

func nameSet(names []string, ids []int32) string {
	out := "{"
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += names[id]
	}
	return out + "}"
}
