// Package gen builds the synthetic substitutes for the paper's three real
// datasets (lastfm, dblp, tweet) and the raw inputs of the learning
// substrates: action logs for TIC influence-probability learning and
// hashtag corpora for LDA topic extraction.
//
// The paper's algorithmic claims rest on two structural properties of real
// social data — power-law influence/degree distributions (used by Lemma 4
// to bound BAB-P's work) and topic-heterogeneous edge probabilities (which
// make single-piece baselines collapse). The generators reproduce both;
// those two properties, not the particular users, are what a synthetic
// substitute has to preserve.
package gen

import (
	"fmt"

	"oipa/internal/xrand"
)

// Edge is a directed edge produced by a topology generator, before topic
// probabilities are attached.
type Edge struct {
	From, To int32
}

// TopologyConfig controls the degree structure of a generated graph.
type TopologyConfig struct {
	N          int     // number of vertices
	M          int     // target number of directed edges
	Alpha      float64 // power-law exponent of the out-degree tail (2 < α < 3 typical)
	MaxDegree  int     // out-degree cap (0 means N-1)
	Reciprocal float64 // probability that an edge gets a reverse companion (1 for co-author style graphs)
	PrefMix    float64 // fraction of endpoints chosen preferentially by in-degree (vs uniformly)
}

// Validate checks the configuration for obvious inconsistencies.
func (c TopologyConfig) Validate() error {
	if c.N <= 1 {
		return fmt.Errorf("gen: need at least 2 vertices, got %d", c.N)
	}
	if c.M < 0 {
		return fmt.Errorf("gen: negative edge target %d", c.M)
	}
	if int64(c.M) > int64(c.N)*int64(c.N-1) {
		return fmt.Errorf("gen: %d edges cannot fit in a simple digraph on %d vertices", c.M, c.N)
	}
	if c.Alpha <= 1 {
		return fmt.Errorf("gen: power-law exponent must exceed 1, got %v", c.Alpha)
	}
	if c.Reciprocal < 0 || c.Reciprocal > 1 {
		return fmt.Errorf("gen: reciprocal probability %v outside [0,1]", c.Reciprocal)
	}
	if c.PrefMix < 0 || c.PrefMix > 1 {
		return fmt.Errorf("gen: preferential mix %v outside [0,1]", c.PrefMix)
	}
	return nil
}

// PowerLawOutDegrees draws an out-degree sequence with a power-law tail
// whose total is exactly m. Degrees are drawn iid from a truncated
// continuous power law and the sequence is then clipped/padded so the sum
// matches m: overflow beyond m zeroes the remaining nodes, shortfall is
// distributed one edge at a time over random nodes.
func PowerLawOutDegrees(cfg TopologyConfig, rng *xrand.SplitMix64) ([]int32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > cfg.N-1 {
		maxDeg = cfg.N - 1
	}
	deg := make([]int32, cfg.N)
	remaining := cfg.M
	// Visit nodes in random order so the truncation at the end of the
	// budget does not correlate with node id.
	order := rng.Perm(cfg.N)
	for _, u := range order {
		if remaining == 0 {
			break
		}
		d := int(rng.PowerLaw(1, float64(maxDeg), cfg.Alpha))
		// Keep expected totals near the target: thin draws down when the
		// raw power-law mean exceeds the per-node budget.
		if mean := float64(cfg.M) / float64(cfg.N); mean < 1 {
			if rng.Float64() >= mean {
				d = 0
			} else if d > 4 {
				// Occasional hub survives the thinning.
				d = d / 2
			}
		}
		if d > remaining {
			d = remaining
		}
		if d > maxDeg {
			d = maxDeg
		}
		deg[u] = int32(d)
		remaining -= d
	}
	// Distribute any shortfall uniformly.
	for remaining > 0 {
		u := rng.Intn(cfg.N)
		if int(deg[u]) < maxDeg {
			deg[u]++
			remaining--
		}
	}
	return deg, nil
}

// GenerateEdges realizes a simple directed graph from the configuration:
// out-degrees follow PowerLawOutDegrees and each edge target is chosen
// either preferentially by current in-degree (probability PrefMix, which
// yields a power-law in-degree tail too) or uniformly. With probability
// Reciprocal an edge also emits its reverse, replacing one unit of the
// remaining edge budget so the total stays at M (up to feasibility).
func GenerateEdges(cfg TopologyConfig, rng *xrand.SplitMix64) ([]Edge, error) {
	deg, err := PowerLawOutDegrees(cfg, rng)
	if err != nil {
		return nil, err
	}
	edges := make([]Edge, 0, cfg.M)
	// seen tracks existing (from, to) pairs; endpoints is the repeated-
	// endpoint pool that makes preferential choice O(1).
	seen := make(map[uint64]bool, cfg.M*2)
	key := func(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }
	endpoints := make([]int32, 0, cfg.M)

	addEdge := func(u, v int32) bool {
		if u == v || seen[key(u, v)] {
			return false
		}
		seen[key(u, v)] = true
		edges = append(edges, Edge{From: u, To: v})
		endpoints = append(endpoints, v)
		return true
	}

	budget := cfg.M
	order := rng.Perm(cfg.N)
	for _, ui := range order {
		u := int32(ui)
		d := int(deg[u])
		attempts := 0
		for placed := 0; placed < d && budget > 0; {
			attempts++
			if attempts > 30*(d+1) {
				break // dense corner case: give up on this node
			}
			var v int32
			if len(endpoints) > 0 && rng.Float64() < cfg.PrefMix {
				v = endpoints[rng.Intn(len(endpoints))]
			} else {
				v = int32(rng.Intn(cfg.N))
			}
			if !addEdge(u, v) {
				continue
			}
			placed++
			budget--
			if budget > 0 && cfg.Reciprocal > 0 && rng.Float64() < cfg.Reciprocal {
				if addEdge(v, u) {
					budget--
				}
			}
		}
		if budget == 0 {
			break
		}
	}
	// Any leftover budget (from dense corner cases) is filled uniformly.
	attempts := 0
	for budget > 0 && attempts < 100*cfg.M+1000 {
		attempts++
		u := int32(rng.Intn(cfg.N))
		v := int32(rng.Intn(cfg.N))
		if addEdge(u, v) {
			budget--
		}
	}
	return edges, nil
}
