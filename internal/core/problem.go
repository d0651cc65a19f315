// Package core implements the paper's contribution: the Optimal
// Influential Pieces Assignment (OIPA) problem and its solvers.
//
// Given a social graph G with topic-aware influence probabilities, a
// multifaceted campaign T of ℓ viral pieces, a promoter pool V^p and a
// budget of k promoter assignments, OIPA asks for an assignment plan
// S̄ = {S_1, .., S_ℓ} (piece j is seeded at S_j, Σ|S_j| ≤ k) maximizing
// the adoption utility σ(S̄) = Σ_v p[X_v = 1] under the logistic adoption
// model of Eq. (1). σ is monotone but not submodular, and OIPA is NP-hard
// to approximate within any constant factor (paper Theorem 1).
//
// Solve runs every solver, by name:
//
//   - "bab": the branch-and-bound framework (Algorithm 1) with the
//     greedy upper bound (Algorithm 2) over the concave hull of Eq. (1)
//     (package logistic), a (1−1/e) approximation of the MRR-estimated
//     optimum (Theorem 2);
//   - "babp": the same framework with progressive upper-bound
//     estimation (Algorithm 3), a (1−1/e−ε) approximation (Theorem 3)
//     with far fewer bound evaluations (Theorem 4);
//   - "im" / "tim": the paper's two baselines adapted from
//     state-of-the-art IM (§VI-A), both greedy maximum coverage on θ RR
//     sets — of the uniform topic mixture for IM, of each piece for TIM
//     — at the same θ every method gets, not IMM's adaptive θ;
//   - "greedy": the one-shot greedy on the hull bound (the root
//     bound computation of BAB, useful as a fast heuristic/ablation).
//
// Every solver runs one configuration: the hull bound, the termination
// gap on the raw Eq. (6) scale, and BAB-P's bounds completed by lazy
// greedy (see BABOptions). Exact enumeration for tiny instances
// (solveBrute) is a test oracle in brute_test.go.
//
// Every bound computation goes through one evaluator (evaluator.go) and
// one of two routines: computeBound, Algorithm 2 as a lazy greedy
// (lazy.go), and computeBoundPro, Algorithm 3, whose completion is that
// same lazy greedy. Both take their initial gains from the
// evaluator's gain frontier — empty-plan gains and their order, computed
// once per prepared lineage and θ and bound by every solve there, plus
// the exact gains of only the candidates a node's partial plan touched —
// so a bound's cost follows the plan's footprint in the samples, not the
// candidate count. A search node carries those
// gains as a chain of levels, and a child's bound starts from its
// parent's: an exclude child shares the parent's chain, and an include
// child adds one level holding just the candidates the included
// candidate's samples reach (named by the index's sample → candidate
// transpose), re-evaluated and left unsorted; a level is ordered only as
// deep as a bound reads it, and prepareNode merges the chain lazily,
// reading each level in its own order. The incumbent's utility is read
// off the coverage the bound has just built (evaluator.utility), the float64
// Index.EstimateAUWith would return. Nodes, chains, levels, the heap and
// the picks live in the evaluator, so a warm pooled search allocates
// little beyond its result. The routines that evaluate what the paper's
// pseudocode evaluates (a full scan per pick; a sort of all candidates
// per call) and a search that prepares every bound from scratch are the
// reference implementations in reference_test.go; picks, τ, branch
// variables and whole results are compared against them with ==.
// SolverStats.TauEvals counts evaluations actually performed.
package core

import (
	"context"
	"fmt"
	"time"

	"oipa/internal/faultpoint"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
)

// Problem is an OIPA problem statement (Definition 1) over the
// topic-aware social graph G.
type Problem struct {
	G        *graph.Graph
	Campaign topic.Campaign
	Pool     []int32 // V^p, the eligible promoters
	K        int     // total promoter assignments available
	Model    logistic.Model
}

// Validate checks the problem statement.
func (p *Problem) Validate() error {
	if p.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	if err := p.Campaign.Validate(p.G.Z()); err != nil {
		return fmt.Errorf("core: campaign: %w", err)
	}
	if len(p.Pool) == 0 {
		return fmt.Errorf("core: empty promoter pool")
	}
	seen := make(map[int32]bool, len(p.Pool))
	for _, v := range p.Pool {
		if v < 0 || int(v) >= p.G.N() {
			return fmt.Errorf("core: pool member %d outside graph", v)
		}
		if seen[v] {
			return fmt.Errorf("core: duplicate pool member %d", v)
		}
		seen[v] = true
	}
	if p.K <= 0 {
		return fmt.Errorf("core: non-positive budget %d", p.K)
	}
	if err := p.Model.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Plan is an assignment plan S̄ = {S_1, .., S_ℓ}: Seeds[j] is the seed set
// assigned to piece j. Seed sets contain no duplicates.
type Plan struct {
	Seeds [][]int32
}

// NewPlan returns an empty plan for l pieces.
func NewPlan(l int) Plan {
	return Plan{Seeds: make([][]int32, l)}
}

// Size returns |S̄| = Σ_j |S_j|.
func (p Plan) Size() int {
	total := 0
	for _, s := range p.Seeds {
		total += len(s)
	}
	return total
}

// Instance is a prepared OIPA instance: the problem plus the MRR samples,
// the promoter-pool inverted index, and the hull bound table that the
// solvers share. Prepare once, solve many times.
//
// Solvers never read MRR directly: they go through Index, whose MRR()
// view is an immutable snapshot frozen at index-build time. That split
// is what makes instances θ-monotone — MRR is the growable owner
// (ExtendTo appends samples in place), while every published Instance,
// including θ-prefix derivatives (Prefix), keeps reading its own frozen
// view and stays bit-identical forever.
//
// Prepare starts a lineage, and every copy derived from it — Prefix,
// ExtendTo, WithK, WithModel, and theirs — shares what the lineage keeps
// for its solves, which is freed with its last instance:
//
//   - the memo of empty-plan gain frontiers: each candidate's degree at
//     a θ and the candidates' order by degree. No copy changes them:
//     sample i is fixed by the seed and i, inverted lists only grow, and
//     neither depends on k or the model. A solve at a θ the memo holds
//     binds that frontier instead of recomputing it. The memo holds at
//     most four θ, a new one replacing the one memoised first;
//   - the solvers' scratch: a pool of evaluators, each sized for the
//     lineage's largest θ, which ExtendTo raises. Every copy has the
//     lineage's (ℓ, |pool|) shape and at most that θ, so any number of
//     solves on any copies share one pool without data races;
//   - the sampling seed, whose successor seeds IM's RR sets.
type Instance struct {
	Problem *Problem
	// Layouts[j] is piece j's influence graph (see graph.PieceLayout).
	// Sampling consumes them at Prepare time and parameter sweeps
	// (WithK/WithModel) share them; the forward simulator reads the
	// graph, not them.
	Layouts []*graph.PieceLayout
	MRR     *rrset.MRRCollection
	Index   *rrset.Index
	Bounds  *logistic.BoundTable

	// SampleTime is how long MRR sampling took for THIS instance: the
	// full sampling pass for a Prepare'd instance, only the growth step's
	// delta for an ExtendTo result. The paper reports sampling separately
	// (Table III) and excludes it from solver comparisons.
	SampleTime time.Duration

	// IndexTime is how long inverted-index work took for THIS instance:
	// the full BuildIndex for a Prepare'd instance, only the O(Δθ)
	// ExtendFrom delta for an ExtendTo result. The serve layer exports it
	// as the index_extend_ns metric.
	IndexTime time.Duration

	lin *lineage // shared by the lineage's copies
}

// MaxPieces bounds ℓ, the pieces one instance takes: per-sample coverage
// keeps a 32-bit piece mask.
const MaxPieces = 32

// Prepare validates the problem, draws theta multi-RR samples (in
// parallel, deterministically from seed) and builds the pool index and
// bound table.
//
// layouts are the optional prebuilt per-piece influence graphs,
// layouts[j] piece j's layout on p.G — typically served by a
// graph.LayoutCache, so repeated preparations of the same campaign skip
// the per-piece materialization; with none given they are built from the
// campaign. Layouts are immutable and Prepare touches no other shared
// state, so any number of calls may run concurrently over one graph.
//
// The sampling pass checks ctx at sample-block granularity
// (rrset.MRRCollection.ExtendToCtx) and a cancellation surfaces as
// ctx.Err() with no instance — a query service can abandon a
// multi-second preparation the moment its request deadline expires
// instead of finishing work nobody will read.
func Prepare(ctx context.Context, p *Problem, theta int, seed uint64, layouts ...*graph.PieceLayout) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := p.Campaign.L()
	if l > MaxPieces {
		return nil, fmt.Errorf("core: %d pieces exceed the %d-piece limit", l, MaxPieces)
	}
	if theta <= 0 {
		return nil, fmt.Errorf("core: non-positive theta %d", theta)
	}
	if len(layouts) == 0 {
		layouts = make([]*graph.PieceLayout, l)
		for j, piece := range p.Campaign.Pieces {
			lay, err := p.G.PieceLayout(piece.Dist)
			if err != nil {
				return nil, err
			}
			layouts[j] = lay
		}
	} else if len(layouts) != l {
		return nil, fmt.Errorf("core: %d layouts for %d pieces", len(layouts), l)
	}
	start := time.Now()
	mrr, err := rrset.NewMRRCollection(p.G, layouts, seed)
	if err != nil {
		return nil, err
	}
	if err := mrr.ExtendToCtx(ctx, theta); err != nil {
		return nil, err
	}
	sampleTime := time.Since(start)
	start = time.Now()
	ix, err := mrr.BuildIndex(p.Pool)
	if err != nil {
		return nil, err
	}
	indexTime := time.Since(start)
	bounds, err := logistic.NewBoundTable(p.Model, l)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Problem:    p,
		Layouts:    layouts,
		MRR:        mrr,
		Index:      ix,
		Bounds:     bounds,
		SampleTime: sampleTime,
		IndexTime:  indexTime,
		lin:        newLineage(seed, theta),
	}, nil
}

// PrepareLayouts is Prepare over prebuilt per-piece layouts (layouts[j]
// is piece j's layout on p.G), without a context.
func PrepareLayouts(p *Problem, layouts []*graph.PieceLayout, theta int, seed uint64) (*Instance, error) {
	return Prepare(context.Background(), p, theta, seed, layouts...)
}

// L returns the number of campaign pieces.
func (in *Instance) L() int { return in.Problem.Campaign.L() }

// Theta returns the number of MRR samples visible to the solvers: the
// sample count of the index's frozen view. A θ-prefix instance reports
// its prefix θ; the backing collection (MRR) may hold more samples.
func (in *Instance) Theta() int { return in.Index.MRR().Theta() }

// Prefix returns a shallow copy of the instance bounded to the first
// theta MRR samples: the index's inverted lists stop at sample theta and
// every estimate rescales by theta, so solver results are bit-identical
// to an instance freshly prepared at theta with the same seed (sample i
// does not depend on the growth schedule). Derivation is O(1); the
// samples, CSR and bound table are shared with the parent.
func (in *Instance) Prefix(theta int) (*Instance, error) {
	ix, err := in.Index.Prefix(theta)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := *in
	out.Index = ix
	return &out, nil
}

// ExtendTo grows the backing MRR collection in place to at least theta
// samples and returns a new instance whose index covers the grown view.
// Both halves of the growth step are incremental: sampling appends only
// the missing samples into the existing shards, and the index is
// extended with Index.ExtendFrom — only samples [oldθ, newθ) are
// appended to each inverted list, so the index delta is O(Δθ), not a
// full O(θ) rebuild. The receiver — and any previously returned
// instance, prefix, or estimator over their views — stays valid and
// bit-identical: views are frozen snapshots, and both shard arenas and
// inverted lists are append-only past every published length. The
// returned instance's SampleTime covers this step's sampling delta and
// its IndexTime the index delta.
//
// Sampling checks ctx at sample-block granularity
// (rrset.MRRCollection.ExtendToCtx) and a cancellation returns ctx.Err()
// with no new instance. The partial growth is NOT rolled back — it is
// consistent (every sample below the collection's new Theta() is fully
// materialized and bit-identical to an uninterrupted growth) and simply
// unpublished, so a later ExtendTo resumes from wherever this one
// stopped.
//
// ExtendTo must not run concurrently with itself or with other mutators
// of the same collection (the serve registry serializes growth behind a
// per-entry lock); concurrent readers of published instances are safe.
// theta at or below the current Theta() returns the receiver unchanged.
// A θ-prefix instance does not grow: ExtendTo refuses it before
// sampling anything. The result holds more than theta samples if an
// unpublished growth did, and raises the lineage's θ to its own.
func (in *Instance) ExtendTo(ctx context.Context, theta int) (*Instance, error) {
	if theta <= in.Theta() {
		return in, nil
	}
	if err := in.Index.CheckExtend(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	if err := in.MRR.ExtendToCtx(ctx, theta); err != nil {
		return nil, err
	}
	sampleTime := time.Since(start)
	// Chaos hook: "core.extend.mid" sits between the sampling and index
	// halves of the growth step — a panic here models the worst
	// mid-growth crash (samples grown, index not), which the serve
	// registry must contain without corrupting the published snapshot.
	if err := faultpoint.Hit("core.extend.mid"); err != nil {
		return nil, err
	}
	start = time.Now()
	ix, err := in.Index.ExtendFrom(in.MRR)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := *in
	out.Index = ix
	out.SampleTime = sampleTime
	out.IndexTime = time.Since(start)
	in.lin.theta.Store(int64(out.Theta()))
	return &out, nil
}

// MemUsage approximates the instance's owned resident bytes: the MRR
// sample storage plus the inverted index. Piece layouts are excluded —
// they are shared through the layout cache and outlive any one instance
// — as is the (tiny) bound table. The serve registry accounts artifact
// residency (resident_bytes) at this figure.
func (in *Instance) MemUsage() int64 {
	return in.MRR.MemUsage() + in.Index.MemUsage()
}

// WithK returns a shallow copy of the instance with a different budget.
// The MRR samples, index and bound table are shared: none depend on k, so
// parameter sweeps over k reuse all the expensive state.
func (in *Instance) WithK(k int) (*Instance, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive budget %d", k)
	}
	p := *in.Problem
	p.K = k
	out := *in
	out.Problem = &p
	return &out, nil
}

// WithModel returns a shallow copy with a different logistic model: the
// bound table is rebuilt while the samples and index — which do not
// depend on α, β — are shared. Used by the β/α sweep (Fig. 6).
func (in *Instance) WithModel(m logistic.Model) (*Instance, error) {
	bounds, err := logistic.NewBoundTable(m, in.L())
	if err != nil {
		return nil, err
	}
	p := *in.Problem
	p.Model = m
	out := *in
	out.Problem = &p
	out.Bounds = bounds
	return &out, nil
}

// EstimateAU evaluates σ̂(S̄) on the instance's MRR samples. Seeds must be
// pool members.
func (in *Instance) EstimateAU(plan Plan) (float64, error) {
	return in.Index.EstimateAU(plan.Seeds, in.Problem.Model)
}

// SolverStats counts the work a solver performed. The serve tier
// aggregates these per endpoint at /metrics and echoes them per
// response, so keep every field cheap to maintain (plain increments on
// the search path).
type SolverStats struct {
	Nodes      int   // branch-and-bound nodes expanded
	BoundEvals int   // ComputeBound / ComputeBoundPro invocations
	TauEvals   int64 // candidate marginal-gain (τ) evaluations actually performed
	// SpecExpansions and SpecWasted are always zero: the search is
	// sequential. The benchmark harness still reads them, so they stay
	// until it stops.
	SpecExpansions int64 `json:"-"`
	SpecWasted     int64 `json:"-"`
}

// Result is a solver outcome.
type Result struct {
	Method  string
	Plan    Plan
	Utility float64 // MRR-estimated adoption utility of Plan
	// Upper is, for the branch-and-bound solvers, the larger of Utility
	// and the largest bound of any subtree the search left unexpanded
	// (pruned, unextendable, or still open when it stopped); greedy
	// reports its root bound, the baselines 0. Bounds are greedy values of
	// the hull τ, so Upper may fall below the MRR-estimated optimum OPT; it
	// certifies OPT ≤ Upper/(1−1/e) for BAB and greedy (Theorem 2) and
	// OPT ≤ Upper/(1−1/e−ε) for BAB-P (Theorem 3).
	Upper   float64
	Elapsed time.Duration
	Stats   SolverStats
}
