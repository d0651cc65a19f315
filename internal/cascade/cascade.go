// Package cascade implements forward Monte-Carlo simulation of the
// topic-aware independent cascade (IC) model from the paper (§III-A), and
// the ground-truth estimators built on top of it:
//
//   - the expected influence spread σ_im(S) of a single viral piece, and
//   - the adoption utility σ(S̄) of a full assignment plan under the
//     logistic adoption model of Eq. (1).
//
// The simulator is the repository's source of truth: the reverse-reachable
// estimators in internal/rrset are validated against it, never the other
// way around.
package cascade

import (
	"fmt"
	"runtime"
	"sync"

	"oipa/internal/bitset"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// Simulator runs IC cascades over one fixed per-edge probability vector
// (one viral piece's homogeneous influence graph), viewed through a
// graph.PieceLayout: probabilities are read in forward-CSR position
// order, and nodes whose out-edges share one probability are expanded
// with geometric-skip jumps — the same traverse.Walker core the RR
// sampler runs in reverse. It is not safe for concurrent use; create one
// per goroutine (see EstimateSpread).
type Simulator struct {
	g        *graph.Graph
	outOff   []int64
	outTo    []int32
	outDist  []graph.NodeDist
	outProbs []float64
	w        *traverse.Walker
}

// NewSimulator returns a simulator for the given graph and per-edge
// activation probabilities (as produced by graph.PieceProbs). The layout
// is built once here; callers that already hold one should use
// NewSimulatorLayout.
func NewSimulator(g *graph.Graph, probs []float64) (*Simulator, error) {
	lay, err := g.Layout(probs)
	if err != nil {
		return nil, fmt.Errorf("cascade: %w", err)
	}
	return NewSimulatorLayout(lay), nil
}

// NewSimulatorLayout returns a simulator over a prebuilt piece layout.
// The layout is shared, read-only; only the scratch state is per-instance.
// A topic-built layout builds its forward side here, on first use.
func NewSimulatorLayout(lay *graph.PieceLayout) *Simulator {
	s := &Simulator{g: lay.Graph(), w: traverse.NewWalker(lay.Graph().N())}
	s.outOff, s.outTo, s.outDist, s.outProbs = lay.Forward()
	return s
}

// Run performs one cascade from the seed set and returns the number of
// activated nodes (including seeds; duplicate seeds count once). If out
// is non-nil, activated node ids are appended to it in activation order.
func (s *Simulator) Run(seeds []int32, rng *xrand.SplitMix64, out *[]int32) int {
	order := s.w.Run(s.outOff, s.outTo, s.outDist, s.outProbs, seeds, rng)
	if out != nil {
		*out = append(*out, order...)
	}
	return len(order)
}

// EstimateSpread estimates the expected influence spread σ_im(S) of seeds
// over `runs` Monte-Carlo cascades, parallelized across CPUs. Each run r
// uses an RNG derived from (seed, r), so the result is independent of the
// degree of parallelism.
func EstimateSpread(g *graph.Graph, probs []float64, seeds []int32, runs int, seed uint64) (float64, error) {
	if runs <= 0 {
		return 0, fmt.Errorf("cascade: non-positive run count %d", runs)
	}
	lay, err := g.Layout(probs)
	if err != nil {
		return 0, fmt.Errorf("cascade: %w", err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > runs {
		workers = runs
	}
	totals := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim := NewSimulatorLayout(lay)
			var sum int64
			for r := w; r < runs; r += workers {
				rng := xrand.Derive(seed, uint64(r))
				sum += int64(sim.Run(seeds, rng, nil))
			}
			totals[w] = sum
		}(w)
	}
	wg.Wait()
	var total int64
	for _, t := range totals {
		total += t
	}
	return float64(total) / float64(runs), nil
}

// EstimateAdoption estimates the adoption utility σ(S̄) of an assignment
// plan by full forward simulation: in each Monte-Carlo run, every piece j
// is propagated independently from its seed set S_j (using independent
// randomness, as the paper's model prescribes), each user's received-piece
// count is fed through the logistic model, and the per-user adoption
// probabilities are summed. pieceProbs[j] holds the per-edge probabilities
// of piece j and plan[j] its seed set.
//
// Runs are parallelized and derive their RNG streams from (seed, run,
// piece), so results are deterministic for a fixed seed.
func EstimateAdoption(g *graph.Graph, pieceProbs [][]float64, plan [][]int32, model logistic.Model, runs int, seed uint64) (float64, error) {
	layouts := make([]*graph.PieceLayout, len(pieceProbs))
	for j, probs := range pieceProbs {
		lay, err := g.Layout(probs)
		if err != nil {
			return 0, fmt.Errorf("cascade: piece %d: %w", j, err)
		}
		layouts[j] = lay
	}
	return EstimateAdoptionLayouts(g, layouts, plan, model, runs, seed)
}

// EstimateAdoptionLayouts is EstimateAdoption over prebuilt piece
// layouts (for example core.Instance.Layouts), skipping the per-call
// layout construction.
func EstimateAdoptionLayouts(g *graph.Graph, layouts []*graph.PieceLayout, plan [][]int32, model logistic.Model, runs int, seed uint64) (float64, error) {
	if runs <= 0 {
		return 0, fmt.Errorf("cascade: non-positive run count %d", runs)
	}
	l := len(layouts)
	if len(plan) != l {
		return 0, fmt.Errorf("cascade: plan has %d seed sets for %d pieces", len(plan), l)
	}
	for j, lay := range layouts {
		if lay == nil || lay.Graph() != g {
			return 0, fmt.Errorf("cascade: piece %d layout not built for this graph", j)
		}
	}
	if err := model.Validate(); err != nil {
		return 0, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > runs {
		workers = runs
	}
	// Precompute the adoption probability for each possible piece count.
	adoptAt := make([]float64, l+1)
	for c := 1; c <= l; c++ {
		adoptAt[c] = model.Adoption(c)
	}
	totals := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sims := make([]*Simulator, l)
			for j := range sims {
				sims[j] = NewSimulatorLayout(layouts[j])
			}
			counts := bitset.NewCounter(g.N())
			activated := make([]int32, 0, 1024)
			var sum float64
			for r := w; r < runs; r += workers {
				counts.Reset()
				for j := 0; j < l; j++ {
					if len(plan[j]) == 0 {
						continue
					}
					activated = activated[:0]
					rng := xrand.Derive(seed, uint64(r)*uint64(l)+uint64(j)+1)
					sims[j].Run(plan[j], rng, &activated)
					for _, v := range activated {
						c := counts.Add(int(v))
						// Incremental utility update: moving a user from
						// count c-1 to c adds adoptAt[c]-adoptAt[c-1].
						sum += adoptAt[c] - adoptAt[c-1]
					}
				}
			}
			totals[w] = sum
		}(w)
	}
	wg.Wait()
	var total float64
	for _, t := range totals {
		total += t
	}
	return total / float64(runs), nil
}

// ExactAdoptionDeterministic computes σ(S̄) exactly for graphs whose edge
// probabilities are all 0 or 1 (such as the paper's running example):
// reachability is deterministic, so one BFS per piece suffices. It returns
// an error if any edge probability is fractional.
func ExactAdoptionDeterministic(g *graph.Graph, pieceProbs [][]float64, plan [][]int32, model logistic.Model) (float64, error) {
	for j, probs := range pieceProbs {
		for eid, p := range probs {
			if p != 0 && p != 1 {
				return 0, fmt.Errorf("cascade: piece %d edge %d has fractional probability %v", j, eid, p)
			}
		}
	}
	if err := model.Validate(); err != nil {
		return 0, err
	}
	counts := make([]int, g.N())
	rng := xrand.New(0) // never consulted: all probabilities are 0 or 1
	for j, probs := range pieceProbs {
		if j >= len(plan) || len(plan[j]) == 0 {
			continue
		}
		sim, err := NewSimulator(g, probs)
		if err != nil {
			return 0, err
		}
		var activated []int32
		sim.Run(plan[j], rng, &activated)
		for _, v := range activated {
			counts[v]++
		}
	}
	total := 0.0
	for _, c := range counts {
		if c > 0 {
			total += model.Adoption(c)
		}
	}
	return total, nil
}
