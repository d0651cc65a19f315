package core

import (
	"fmt"
	"time"

	"oipa/internal/graph"
	"oipa/internal/rrset"
	"oipa/internal/topic"
)

// solveIM is the paper's IM baseline (§VI-A): pick one seed set S of size
// k on the *topic-agnostic* graph under the IC model, then assign S to
// whichever single viral piece yields the largest adoption utility. It
// ignores both the topic heterogeneity of pieces and the multifaceted
// adoption model, which is exactly why the paper expects it to lose.
//
// The topic-agnostic influence graph uses the uniform topic mixture
// t_unif = (1/|Z|, .., 1/|Z|), i.e. edge probability mean_z p(e|z) — the
// expected probability for a message with no topic information. S is
// greedy maximum coverage (greedyCover) over θ RR sets of that graph —
// a one-piece MRR collection grown to the instance's θ, the same θ every
// method gets — rather than IMM's adaptively sized sample. Those sets are
// drawn with the lineage's seed + 1, so they are not the instance's own
// samples.
func solveIM(inst *Instance) (*Result, error) {
	start := time.Now()
	p := inst.Problem
	uniform := make([]float64, p.G.Z())
	for i := range uniform {
		uniform[i] = 1 / float64(len(uniform))
	}
	lay, err := p.G.PieceLayout(topic.FromDense(uniform))
	if err != nil {
		return nil, err
	}
	col, err := rrset.NewMRRCollection(p.G, []*graph.PieceLayout{lay}, inst.lin.seed+1)
	if err != nil {
		return nil, err
	}
	if err := col.ExtendTo(inst.Theta()); err != nil {
		return nil, err
	}
	ix, err := col.BuildIndex(p.Pool)
	if err != nil {
		return nil, err
	}
	seeds, err := greedyCover(ix, 0, p.K)
	if err != nil {
		return nil, err
	}
	plan, util, err := bestSinglePiecePlan(inst, seeds)
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:  "IM",
		Plan:    plan,
		Utility: util,
		Elapsed: time.Since(start),
	}, nil
}

// solveTIM is the paper's TIM baseline (§VI-A): for every piece t_j, run
// solveIM's greedy cover on the piece's own influence graph G_{t_j} to get
// a k-seed set S_j, then keep the single (piece, seed set) pair with the
// largest adoption utility. Topic-aware but still single-piece: users who
// receive only one piece adopt with low probability, which is the paper's
// argument for multifaceted optimization.
//
// The per-piece RR sets are the MRR collection's own slices — the same
// "θ RR sets for each viral piece" the paper grants every method.
func solveTIM(inst *Instance) (*Result, error) {
	start := time.Now()
	l := inst.L()
	best := Plan{}
	bestUtil := -1.0
	for j := 0; j < l; j++ {
		seeds, err := greedyCover(inst.Index, j, inst.Problem.K)
		if err != nil {
			return nil, err
		}
		plan := NewPlan(l)
		plan.Seeds[j] = seeds
		util, err := inst.EstimateAU(plan)
		if err != nil {
			return nil, err
		}
		if util > bestUtil {
			bestUtil = util
			best = plan
		}
	}
	return &Result{
		Method:  "TIM",
		Plan:    best,
		Utility: bestUtil,
		Elapsed: time.Since(start),
	}, nil
}

// bestSinglePiecePlan assigns seeds to each piece in turn and returns the
// single-piece plan with the highest estimated utility.
func bestSinglePiecePlan(inst *Instance, seeds []int32) (Plan, float64, error) {
	l := inst.L()
	if len(seeds) == 0 {
		return NewPlan(l), 0, nil
	}
	best := Plan{}
	bestUtil := -1.0
	for j := 0; j < l; j++ {
		plan := NewPlan(l)
		plan.Seeds[j] = seeds
		util, err := inst.EstimateAU(plan)
		if err != nil {
			return Plan{}, 0, err
		}
		if util > bestUtil {
			bestUtil = util
			best = plan
		}
	}
	return best, bestUtil, nil
}

// greedyCover is the greedy maximum coverage both IM baselines run:
// up to k pool members, each the one whose piece-j inverted list holds
// the most samples not yet covered, ties broken toward the earlier pool
// position. Gains are maintained decrementally, so the cost is
// O(total RR size + k·|pool|), and the selection is a (1−1/e)
// approximation of the best k-cover. It stops early once no pool member
// covers anything new.
func greedyCover(ix *rrset.Index, j, k int) ([]int32, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive budget %d", k)
	}
	pp := ix.PoolSize()
	deg := make([]int64, pp)
	for p := 0; p < pp; p++ {
		deg[p] = int64(ix.Degree(j, int32(p)))
	}
	covered := make([]bool, ix.MRR().Theta())
	taken := make([]bool, pp)
	var seeds []int32
	// Decremental greedy needs the reverse direction (sample -> pool
	// members); recover it from the RR sets filtered through PoolPos.
	for len(seeds) < k {
		best, bestDeg := -1, int64(0)
		for p := 0; p < pp; p++ {
			if !taken[p] && deg[p] > bestDeg {
				best, bestDeg = p, deg[p]
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		seeds = append(seeds, ix.Pool()[best])
		for _, i := range ix.Samples(j, int32(best)) {
			if covered[i] {
				continue
			}
			covered[i] = true
			for _, v := range ix.MRR().Set(int(i), j) {
				if p, ok := ix.PoolPos(v); ok {
					deg[p]--
				}
			}
		}
	}
	return seeds, nil
}
