package gen

import (
	"fmt"
	"math"

	"oipa/internal/graph"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// TopicConfig controls how topic-aware influence probabilities p(e|z) are
// attached to a generated topology, mimicking what the TIC learner would
// produce from real propagation logs.
type TopicConfig struct {
	Z             int     // number of hidden topics
	UserKeep      int     // non-zero entries per user interest vector
	EdgeKeep      int     // max non-zero entries per edge probability vector
	EdgeKeepMin   int     // min non-zero entries per edge (0 = EdgeKeep); the per-edge count is uniform in [min, max], letting tweet hit the paper's ~1.5 average
	Concentration float64 // Dirichlet concentration of user interests
	ProbScale     float64 // base influence scale (weighted-cascade style)
	MaxProb       float64 // per-topic probability cap
}

// Validate checks the topic configuration.
func (c TopicConfig) Validate() error {
	if c.Z <= 0 {
		return fmt.Errorf("gen: need at least one topic, got %d", c.Z)
	}
	if c.UserKeep <= 0 || c.EdgeKeep <= 0 {
		return fmt.Errorf("gen: keep counts must be positive (%d, %d)", c.UserKeep, c.EdgeKeep)
	}
	if c.EdgeKeepMin < 0 || c.EdgeKeepMin > c.EdgeKeep {
		return fmt.Errorf("gen: EdgeKeepMin %d outside [0, %d]", c.EdgeKeepMin, c.EdgeKeep)
	}
	if c.Concentration <= 0 {
		return fmt.Errorf("gen: concentration must be positive, got %v", c.Concentration)
	}
	if c.ProbScale <= 0 || c.ProbScale > 1 {
		return fmt.Errorf("gen: probability scale %v outside (0,1]", c.ProbScale)
	}
	if c.MaxProb <= 0 || c.MaxProb > 1 {
		return fmt.Errorf("gen: probability cap %v outside (0,1]", c.MaxProb)
	}
	return nil
}

// Interests draws one sparse topic-interest distribution per user.
func Interests(n int, cfg TopicConfig, rng *xrand.SplitMix64) ([]topic.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]topic.Vector, n)
	for u := range out {
		out[u] = topic.Dirichlet(cfg.Z, cfg.Concentration, cfg.UserKeep, rng)
	}
	return out, nil
}

// AttachTopics builds the final topic-aware influence graph from a
// topology and per-user interests. The per-edge vector follows the TIC
// intuition that u influences v on the topics both engage with:
//
//	affinity(e, z) ∝ interests_u[z] + interests_v[z], kept sparse,
//	p(e|z) = min(MaxProb, ProbScale · wc(v) · affinity(e, z) · EdgeKeep)
//
// where wc(v) = 1/indeg(v)^0.5 is a softened weighted-cascade factor that
// keeps hub users from being trivially activated. The EdgeKeep multiplier
// compensates for the mass lost to sparsification so single-topic pieces
// still propagate.
func AttachTopics(n int, edges []Edge, interests []topic.Vector, cfg TopicConfig, rng *xrand.SplitMix64) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(interests) != n {
		return nil, fmt.Errorf("gen: %d interest vectors for %d users", len(interests), n)
	}
	indeg := make([]int32, n)
	for _, e := range edges {
		indeg[e.To]++
	}
	wc := make([]float64, n)
	for v := range wc {
		d := float64(indeg[v])
		if d < 1 {
			d = 1
		}
		wc[v] = 1 / math.Sqrt(d)
	}

	b := graph.NewBuilder(n, cfg.Z)
	dense := make([]float64, cfg.Z)
	type kv struct {
		idx int32
		val float64
	}
	top := make([]kv, 0, cfg.Z)
	var vec topic.Vector // reused: AddEdge copies its entries
	for _, e := range edges {
		// Combine endpoint interests into a dense affinity profile.
		for i := range dense {
			dense[i] = 0
		}
		for i, idx := range interests[e.From].Idx {
			dense[idx] += interests[e.From].Val[i]
		}
		for i, idx := range interests[e.To].Idx {
			dense[idx] += interests[e.To].Val[i]
		}
		// Keep the strongest topics; the per-edge count is uniform in
		// [EdgeKeepMin, EdgeKeep] when a minimum is configured.
		top = top[:0]
		for i, v := range dense {
			if v > 0 {
				top = append(top, kv{int32(i), v})
			}
		}
		// Partial selection by repeated max extraction (EdgeKeep is tiny).
		keep := cfg.EdgeKeep
		if cfg.EdgeKeepMin > 0 && cfg.EdgeKeepMin < cfg.EdgeKeep {
			keep = cfg.EdgeKeepMin + rng.Intn(cfg.EdgeKeep-cfg.EdgeKeepMin+1)
		}
		if keep > len(top) {
			keep = len(top)
		}
		for i := 0; i < keep; i++ {
			best := i
			for j := i + 1; j < len(top); j++ {
				if top[j].val > top[best].val {
					best = j
				}
			}
			top[i], top[best] = top[best], top[i]
		}
		top = top[:keep]
		// Renormalize the kept affinities and scale into probabilities.
		var sum float64
		for _, t := range top {
			sum += t.val
		}
		scale := cfg.ProbScale * wc[e.To] * float64(cfg.EdgeKeep)
		for i := range dense {
			dense[i] = 0
		}
		if sum > 0 {
			for _, t := range top {
				p := scale * (t.val / sum)
				if p > cfg.MaxProb {
					p = cfg.MaxProb
				}
				dense[t.idx] = p
			}
		} else {
			// Isolated interests: put a minimal probability on a random
			// topic so the edge is not dead for every piece.
			p := scale / float64(cfg.EdgeKeep)
			if p > cfg.MaxProb {
				p = cfg.MaxProb
			}
			dense[rng.Intn(cfg.Z)] = p
		}
		vec.Idx, vec.Val = vec.Idx[:0], vec.Val[:0]
		for z, x := range dense {
			if x != 0 {
				vec.Idx = append(vec.Idx, int32(z))
				vec.Val = append(vec.Val, x)
			}
		}
		if err := b.AddEdge(e.From, e.To, vec); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
