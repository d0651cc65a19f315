package core

import (
	"fmt"
	"time"

	"oipa/internal/bitset"
	"oipa/internal/graph"
	"oipa/internal/rrset"
	"oipa/internal/topic"
)

// SolveIM is the paper's IM baseline (§VI-A): pick one seed set S of size
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
// method gets — rather than IMM's adaptively sized sample.
func SolveIM(inst *Instance, seed uint64) (*Result, error) {
	start := time.Now()
	uniform := make([]float64, inst.Problem.Z())
	for i := range uniform {
		uniform[i] = 1 / float64(len(uniform))
	}
	// Over a multiplex the uniform mixture's walk couples across layers
	// exactly like the campaign pieces' walks.
	p := inst.Problem
	lays, err := p.pieceLayouts(topic.FromDense(uniform))
	if err != nil {
		return nil, err
	}
	col, err := rrset.NewMRRCollection(p.G, p.Mux, [][]*graph.PieceLayout{lays}, seed)
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

// SolveTIM is the paper's TIM baseline (§VI-A): for every piece t_j, run
// SolveIM's greedy cover on the piece's own influence graph G_{t_j} to get
// a k-seed set S_j, then keep the single (piece, seed set) pair with the
// largest adoption utility. Topic-aware but still single-piece: users who
// receive only one piece adopt with low probability, which is the paper's
// argument for multifaceted optimization.
//
// The per-piece RR sets are the MRR collection's own slices — the same
// "θ RR sets for each viral piece" the paper grants every method.
func SolveTIM(inst *Instance) (*Result, error) {
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

// SolveMDS is a structural baseline: a greedy minimal dominating set
// over the promoter pool, assigned to the best single piece. Each round
// takes the pool member whose closed out-neighborhood (itself plus its
// out-neighbors — unioned across every layer it appears in, for a
// multiplex) covers the most not-yet-dominated universe nodes, until
// every node is dominated, the pool is exhausted of useful members, or
// the budget k is spent. Domination is probability- and topic-blind: the
// baseline tests how far pure coverage structure gets without the
// diffusion model, which is exactly why the paper's utility-driven
// methods should beat it.
func SolveMDS(inst *Instance) (*Result, error) {
	start := time.Now()
	p := inst.Problem
	n := p.N()
	mark := bitset.NewStamp(n)
	nbhd := make([][]int32, len(p.Pool))
	for i, v := range p.Pool {
		nbhd[i] = closedOutNeighborhood(p, v, mark)
	}
	dominated := make([]bool, n)
	remaining := n
	taken := make([]bool, len(p.Pool))
	var seeds []int32
	for len(seeds) < p.K && remaining > 0 {
		best, bestGain := -1, 0
		for i := range p.Pool {
			if taken[i] {
				continue
			}
			gain := 0
			for _, u := range nbhd[i] {
				if !dominated[u] {
					gain++
				}
			}
			// Strict > keeps the tie-break on pool order: deterministic
			// for the golden test and independent of map iteration.
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		seeds = append(seeds, p.Pool[best])
		for _, u := range nbhd[best] {
			if !dominated[u] {
				dominated[u] = true
				remaining--
			}
		}
	}
	plan, util, err := bestSinglePiecePlan(inst, seeds)
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:  "MDS",
		Plan:    plan,
		Utility: util,
		Elapsed: time.Since(start),
	}, nil
}

// closedOutNeighborhood collects v plus its out-neighbors as universe
// ids, deduplicated across layers for a multiplex problem. mark is
// caller-provided scratch over the universe.
func closedOutNeighborhood(p *Problem, v int32, mark *bitset.Stamp) []int32 {
	mark.Reset()
	mark.Mark(int(v))
	out := []int32{v}
	for a := 0; a < p.layers(); a++ {
		g, toGlobal, toLocal := p.layer(a)
		lv := v
		if toLocal != nil {
			lv = toLocal[v]
		}
		if lv < 0 || int(lv) >= g.N() {
			continue // v absent from this layer
		}
		to, _ := g.OutNeighbors(lv)
		for _, lu := range to {
			u := lu
			if toGlobal != nil {
				u = toGlobal[lu]
			}
			if mark.MarkOnce(int(u)) {
				out = append(out, u)
			}
		}
	}
	return out
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
