package gen

import (
	"fmt"

	"oipa/internal/tic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// ActionLogConfig controls the synthetic propagation-log generator that
// feeds the TIC learner: the stand-in for the paper's real lastfm action
// log. The log's cascades run on the dataset's planted graph, so what the
// learner recovers can be checked against the planted probabilities.
type ActionLogConfig struct {
	Items         int // number of distinct items propagated
	SeedsPerItem  int // how many initial adopters each item starts from
	TopicsPerItem int // non-zero entries in each item's topic distribution
	MaxSteps      int // cascade horizon (0 = unbounded)
}

// Validate checks the log configuration.
func (c ActionLogConfig) Validate() error {
	if c.Items <= 0 || c.SeedsPerItem <= 0 || c.TopicsPerItem <= 0 {
		return fmt.Errorf("gen: action log config must be positive: %+v", c)
	}
	return nil
}

// GenerateActionLog simulates item cascades over the dataset's planted
// influence graph and records every activation with its time step. The
// cascades follow the same topic-aware IC semantics as the paper's
// propagation model, so a learner that inverts this log is exercising the
// real TIC learning problem with a known ground truth.
func GenerateActionLog(d *Dataset, cfg ActionLogConfig, seed uint64) (*tic.ActionLog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := d.G
	rng := xrand.New(seed)
	log := &tic.ActionLog{Items: make([]topic.Vector, cfg.Items)}
	// Per-cascade BFS state with activation times.
	activatedAt := make([]int32, g.N())
	for item := 0; item < cfg.Items; item++ {
		log.Items[item] = topic.Dirichlet(g.Z(), 0.3, cfg.TopicsPerItem, rng)
		probs := g.PieceProbs(log.Items[item])
		for i := range activatedAt {
			activatedAt[i] = -1
		}
		var frontier, next []int32
		nSeeds := cfg.SeedsPerItem
		if nSeeds > g.N() {
			nSeeds = g.N()
		}
		for _, s := range rng.Sample(g.N(), nSeeds) {
			v := int32(s)
			activatedAt[v] = 0
			frontier = append(frontier, v)
			log.Actions = append(log.Actions, tic.Action{User: v, Item: int32(item), Time: 0})
		}
		for step := int32(1); len(frontier) > 0; step++ {
			if cfg.MaxSteps > 0 && int(step) > cfg.MaxSteps {
				break
			}
			next = next[:0]
			for _, u := range frontier {
				tos, eids := g.OutNeighbors(u)
				for i, v := range tos {
					if activatedAt[v] >= 0 {
						continue
					}
					p := probs[eids[i]]
					if p <= 0 || (p < 1 && rng.Float64() >= p) {
						continue
					}
					activatedAt[v] = step
					next = append(next, v)
					log.Actions = append(log.Actions, tic.Action{User: v, Item: int32(item), Time: step})
				}
			}
			frontier, next = next, frontier
		}
	}
	log.Sort()
	return log, nil
}
