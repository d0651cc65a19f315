package rrset

import (
	"context"
	"fmt"
	"runtime"

	"oipa/internal/bitset"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// pieceSampler abstracts "draw piece j's RR set of root" over the two
// walkers: sampler (one graph) and muxSampler (a multiplex of layers).
// One pieceSampler is private to one worker goroutine; samplePiece
// appends the set's nodes (root first) to out.
type pieceSampler interface {
	samplePiece(root int32, j int, rng *xrand.SplitMix64, out []int32) []int32
}

// sampler is the one-graph pieceSampler: the per-goroutine reverse-BFS
// scratch of traverse.Walker plus each piece's reverse walk view.
type sampler struct {
	w      *traverse.Walker
	pieces []traverse.Layer
}

// samplePiece grows the RR set of root under piece j's layout and
// appends its nodes (including the root) to out. The traversal — per-node
// uniform/mixed dispatch, geometric-skip jumps, RNG draw order — is
// traverse.Walker.RunFrom over the layout's reverse walk view (the pruned
// per-piece graph, whichever constructor built the layout — same sets
// either way).
func (s *sampler) samplePiece(root int32, j int, rng *xrand.SplitMix64, out []int32) []int32 {
	l := &s.pieces[j]
	order := s.w.RunFrom(l.Off, l.Adj, l.Dist, l.Probs, root, rng)
	return append(out, order...)
}

// muxSampler is the multiplex pieceSampler: the layer-generic reverse
// walk of traverse.MultiWalker over one traverse.Layer set per piece.
// Sets hold universe node ids, so everything downstream of sampling —
// index, sketches, estimators, solvers — is substrate-agnostic.
type muxSampler struct {
	w      *traverse.MultiWalker
	pieces [][]traverse.Layer
}

func (ms *muxSampler) samplePiece(root int32, j int, rng *xrand.SplitMix64, out []int32) []int32 {
	order := ms.w.Run(ms.pieces[j], root, rng)
	return append(out, order...)
}

// substrate is what an MRRCollection samples over: a node universe
// [0, n), the graph of every layer, and the per-piece layouts as
// [piece][layer]. One graph is the one-layer case — mux nil, the layer
// numbered in universe ids; one piece (ℓ = 1) is the plain RR collection
// the IM baselines cover.
// newSubstrate is the only place the package asks which of the two it
// was given; everything else reads the fields it filled in.
type substrate struct {
	g      *graph.Graph     // the one graph; nil over a multiplex
	mux    *graph.Multiplex // the layer set; nil over one graph
	n      int
	graphs []*graph.Graph // graphs[a] is the graph layer a's layouts are built for

	layouts [][]*graph.PieceLayout // layouts[j][a] is piece j's layout on layer a

	// newPieceSampler returns a fresh per-worker sampler.
	newPieceSampler func() pieceSampler
}

// newSubstrate assembles and validates the substrate of g (one graph) or
// mx (a multiplex) — exactly one is non-nil.
//
// The multiplex branch is reachable only through
// SampleMRRMultiplexLayouts, and exists for the benchmark's
// rrset.sample_mux1_ms row, which times a one-identity-layer multiplex
// against the one-graph walk. It goes when that row does.
func newSubstrate(g *graph.Graph, mx *graph.Multiplex, layouts [][]*graph.PieceLayout) (*substrate, error) {
	if (g == nil) == (mx == nil) {
		return nil, fmt.Errorf("rrset: exactly one of a graph and a multiplex must be given")
	}
	s := &substrate{g: g, mux: mx, layouts: layouts}
	if mx == nil {
		s.n, s.graphs = g.N(), []*graph.Graph{g}
		s.newPieceSampler = func() pieceSampler {
			pieces := make([]traverse.Layer, len(s.layouts))
			for j, lays := range s.layouts {
				pieces[j] = traverse.LayerOf(lays[0], nil, nil)
			}
			return &sampler{w: traverse.NewWalker(s.n), pieces: pieces}
		}
	} else {
		s.n, s.graphs = mx.N(), make([]*graph.Graph, mx.L())
		for a := range s.graphs {
			s.graphs[a] = mx.Layer(a)
		}
		s.newPieceSampler = func() pieceSampler {
			pieces := make([][]traverse.Layer, len(s.layouts))
			for j, lays := range s.layouts {
				pieces[j] = make([]traverse.Layer, len(lays))
				for a, lay := range lays {
					pieces[j][a] = traverse.LayerOf(lay, mx.ToGlobal(a), mx.ToLocal(a))
				}
			}
			return &muxSampler{w: traverse.NewMultiWalker(s.n, mx.LayerSizes()), pieces: pieces}
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate checks the layouts against the substrate: at least one piece,
// and for every piece one layout per layer, built for that layer's graph.
func (s *substrate) validate() error {
	if len(s.layouts) == 0 {
		return fmt.Errorf("rrset: no pieces")
	}
	for j, lays := range s.layouts {
		if len(lays) != len(s.graphs) {
			return fmt.Errorf("rrset: piece %d has %d layouts for %d layers", j, len(lays), len(s.graphs))
		}
		for a, lay := range lays {
			if lay == nil || lay.Graph() != s.graphs[a] {
				return fmt.Errorf("rrset: piece %d layout not built for the graph of layer %d", j, a)
			}
		}
	}
	return nil
}

// same reports whether two substrates sample over the same graph or
// multiplex (Index.ExtendFrom matches collections by it).
func (s *substrate) same(o *substrate) bool { return s.g == o.g && s.mux == o.mux }

// oneLayer lifts per-piece layouts over one graph into the substrate's
// [piece][layer] shape.
func oneLayer(layouts []*graph.PieceLayout) [][]*graph.PieceLayout {
	out := make([][]*graph.PieceLayout, len(layouts))
	for j := range layouts {
		out[j] = layouts[j : j+1 : j+1]
	}
	return out
}

// workerSamplers keeps one pieceSampler per extend worker for the length
// of one growth call, so a growth chunked for cancellation (ExtendToCtx)
// builds its walkers, visited stamps and multiplex layer tables once per
// worker rather than once per worker per chunk. Worker w of store.extend
// is one goroutine at a time, and a growth call's runs are sequential,
// so slot w needs no lock.
type workerSamplers struct {
	newSampler func() pieceSampler
	slots      []pieceSampler
}

func newWorkerSamplers(newSampler func() pieceSampler) *workerSamplers {
	return &workerSamplers{newSampler: newSampler, slots: make([]pieceSampler, runtime.GOMAXPROCS(0))}
}

// get returns worker w's sampler, constructing it on first use. A worker
// index past the slots (GOMAXPROCS raised mid-growth) gets a sampler of
// its own for the run.
func (ws *workerSamplers) get(w int) pieceSampler {
	if w >= len(ws.slots) {
		return ws.newSampler()
	}
	if ws.slots[w] == nil {
		ws.slots[w] = ws.newSampler()
	}
	return ws.slots[w]
}

// mrrCore is the read side shared by MRRCollection and MRRView: θ
// multi-RR samples over ℓ pieces, sample i's piece-j set stored at
// global set index i·ℓ+j. Estimator methods share scratch state and are
// not safe for concurrent use.
type mrrCore struct {
	n     int
	l     int
	sub   *substrate // what the samples were drawn over; ExtendFrom matches collections by it
	st    store
	roots []int32

	planMark []*bitset.Stamp // EstimateAUScan scratch, lazily allocated
}

// Theta returns the number of multi-RR samples.
func (m *mrrCore) Theta() int { return len(m.roots) }

// L returns the number of pieces.
func (m *mrrCore) L() int { return m.l }

// N returns the node-universe size the collection samples over (the
// graph's vertex count, or a multiplex's shared-identity universe).
func (m *mrrCore) N() int { return m.n }

// Root returns the root of sample i.
func (m *mrrCore) Root(i int) int32 { return m.roots[i] }

// Set returns R_i^j, the RR set of sample i for piece j (aliases internal
// storage).
func (m *mrrCore) Set(i, j int) []int32 {
	return m.st.set(int64(i)*int64(m.l) + int64(j))
}

// TotalSize returns the summed cardinality of all RR sets.
func (m *mrrCore) TotalSize() int { return m.st.totalSize() }

// MemUsage approximates the collection's resident bytes: shard arenas
// (at capacity), the block/run directory, and the roots. Views report
// the storage they snapshot.
func (m *mrrCore) MemUsage() int64 { return m.st.memUsage() + int64(cap(m.roots))*4 }

// Shards returns the number of shard arenas backing the storage.
func (m *mrrCore) Shards() int { return m.st.numShards() }

// EstimateAUScan estimates σ(S̄) by scanning every RR set (Eq. 6 with the
// zero-when-uncovered semantics of Eq. 1). It is O(total RR size) per
// call; the solvers use the inverted Index instead. Plans may seed any
// graph node, not just pool members; ids outside the graph never match.
// Estimating over an empty collection is an error (there is no sample
// mean to report), never NaN.
func (m *mrrCore) EstimateAUScan(plan [][]int32, model logistic.Model) (float64, error) {
	for len(m.planMark) < m.l {
		m.planMark = append(m.planMark, bitset.NewStamp(m.n))
	}
	return m.estimateAUScanBounded(m.planMark, plan, model, m.Theta())
}

// estimateAUScanBounded is EstimateAUScan over caller-supplied mark
// scratch (one stamp per piece, sized to the graph), restricted to the
// first theta samples and rescaled by theta — the θ-prefix semantics:
// the result is bit-identical to a full scan of a collection freshly
// sampled to theta with the same seed. AUEstimator uses it to scan a
// shared view concurrently.
func (m *mrrCore) estimateAUScanBounded(marks []*bitset.Stamp, plan [][]int32, model logistic.Model, theta int) (float64, error) {
	if m.Theta() == 0 {
		return 0, fmt.Errorf("rrset: estimate over an empty collection")
	}
	if theta <= 0 || theta > m.Theta() {
		return 0, fmt.Errorf("rrset: prefix theta %d outside [1, %d]", theta, m.Theta())
	}
	if len(plan) != m.l {
		return 0, fmt.Errorf("rrset: plan has %d seed sets for %d pieces", len(plan), m.l)
	}
	if err := model.Validate(); err != nil {
		return 0, err
	}
	// adoptAt[c] is Adoption(c): one table per call instead of a math.Exp
	// per sample (held on the stack for any ℓ the solvers accept).
	var buf [33]float64
	adoptAt := buf[:0]
	for c := 0; c <= m.l; c++ {
		adoptAt = append(adoptAt, model.Adoption(c))
	}
	// active[j]: piece j has at least one in-graph seed marked.
	active := make([]bool, m.l)
	for j, seeds := range plan {
		st := marks[j]
		st.Reset()
		for _, v := range seeds {
			if v >= 0 && int(v) < m.n {
				st.Mark(int(v))
				active[j] = true
			}
		}
	}
	total := 0.0
	for i := 0; i < theta; i++ {
		count := 0
		for j := 0; j < m.l; j++ {
			if !active[j] {
				continue
			}
			st := marks[j]
			for _, v := range m.Set(i, j) {
				if st.Marked(int(v)) {
					count++
					break
				}
			}
		}
		total += adoptAt[count]
	}
	return float64(m.n) * total / float64(theta), nil
}

// MRRCollection holds θ multi-RR samples over ℓ pieces in sharded
// flattened storage (see the package comment); with ℓ = 1 it is a plain
// RR collection. Estimator methods share scratch state and are not safe
// for concurrent use.
type MRRCollection struct {
	mrrCore
	seed uint64

	// rootsPinned marks collections whose roots were supplied by the
	// caller (SampleMRRWithRoots) rather than derived from (seed, i);
	// extending one would silently mix two root distributions, so
	// ExtendTo refuses.
	rootsPinned bool
}

// MRRView is an immutable read-side snapshot of an MRRCollection: it
// stays bit-identical even while the parent collection keeps growing,
// because shard arenas are append-only, and taking one copies only slice
// headers, never set data. One MRRView value is not safe for
// concurrent use (estimators share scratch); take one view per
// goroutine, or share a single view across goroutines through
// per-goroutine AUEstimators (NewEstimator).
type MRRView struct {
	mrrCore
}

// AUEstimator evaluates adoption utility over a shared MRRView with
// private mark scratch. The view's sample storage is immutable, so any
// number of estimators may scan one view concurrently — the sharing
// pattern of a query service: one view per prepared artifact, one
// estimator per in-flight request.
type AUEstimator struct {
	v     *MRRView
	marks []*bitset.Stamp
}

// NewEstimator returns an estimator with its own scratch over the view.
func (v *MRRView) NewEstimator() *AUEstimator {
	marks := make([]*bitset.Stamp, v.l)
	for j := range marks {
		marks[j] = bitset.NewStamp(v.n)
	}
	return &AUEstimator{v: v, marks: marks}
}

// EstimateAU is MRRView.EstimateAUScan through the estimator's private
// scratch: same semantics, bit-identical result, concurrency-safe across
// estimators of the same view.
func (e *AUEstimator) EstimateAU(plan [][]int32, model logistic.Model) (float64, error) {
	return e.v.estimateAUScanBounded(e.marks, plan, model, e.v.Theta())
}

// EstimateAUPrefix is EstimateAU restricted to the view's first theta
// samples, rescaled by theta — bit-identical to EstimateAU on a view of
// a collection freshly sampled to theta with the same seed. The mark
// scratch is sized by the graph, not by θ, so one pooled estimator
// serves requests of any prefix size over its view.
func (e *AUEstimator) EstimateAUPrefix(plan [][]int32, model logistic.Model, theta int) (float64, error) {
	return e.v.estimateAUScanBounded(e.marks, plan, model, theta)
}

// View returns an immutable snapshot of the collection's current
// samples.
func (m *MRRCollection) View() *MRRView {
	return &MRRView{mrrCore{n: m.n, l: m.l, sub: m.sub, st: m.st.snapshot(), roots: m.roots[:len(m.roots):len(m.roots)]}}
}

// Prefix returns a view over the first theta samples of v. MRR sample i
// is deterministic in (graph, layouts, seed) — independent of the growth
// schedule — so a θ-prefix view is bit-identical to the view of a
// collection freshly sampled to θ with the same seed: every estimate over
// it scans exactly those samples and rescales by θ. theta must lie in
// [1, v.Theta()]; passing v.Theta() returns v itself.
func (v *MRRView) Prefix(theta int) (*MRRView, error) {
	if theta <= 0 || theta > v.Theta() {
		return nil, fmt.Errorf("rrset: prefix theta %d outside [1, %d]", theta, v.Theta())
	}
	if theta == v.Theta() {
		return v, nil
	}
	return &MRRView{mrrCore{n: v.n, l: v.l, sub: v.sub, st: v.st, roots: v.roots[:theta:theta]}}, nil
}

// newMRRCollection returns an empty l-piece collection over the substrate.
func newMRRCollection(sub *substrate, l int, seed uint64) *MRRCollection {
	return &MRRCollection{
		mrrCore: mrrCore{n: sub.n, l: l, sub: sub, st: store{setsPerSample: l}},
		seed:    seed,
	}
}

// NewMRRCollection returns an empty multi-RR collection over g, to be
// grown with ExtendTo or ExtendToCtx: layouts[j] is piece j's layout on
// g. Sample i derives its RNG and root from (seed, i).
func NewMRRCollection(g *graph.Graph, layouts []*graph.PieceLayout, seed uint64) (*MRRCollection, error) {
	return newSubstrateCollection(g, nil, oneLayer(layouts), seed)
}

// newSubstrateCollection is NewMRRCollection over either substrate.
func newSubstrateCollection(g *graph.Graph, mx *graph.Multiplex, layouts [][]*graph.PieceLayout, seed uint64) (*MRRCollection, error) {
	sub, err := newSubstrate(g, mx, layouts)
	if err != nil {
		return nil, err
	}
	return newMRRCollection(sub, len(layouts), seed), nil
}

// sampleMRR is newSubstrateCollection grown to theta samples.
func sampleMRR(g *graph.Graph, mx *graph.Multiplex, layouts [][]*graph.PieceLayout, theta int, seed uint64) (*MRRCollection, error) {
	m, err := newSubstrateCollection(g, mx, layouts, seed)
	if err != nil {
		return nil, err
	}
	if theta <= 0 {
		return nil, fmt.Errorf("rrset: non-positive theta %d", theta)
	}
	if err := m.ExtendTo(theta); err != nil {
		return nil, err
	}
	return m, nil
}

// SampleMRR draws theta multi-RR samples. pieceProbs[j] holds the per-edge
// probabilities of piece j (from graph.PieceProbs). Parallel and
// deterministic in the same sense as MRRCollection.ExtendTo.
func SampleMRR(g *graph.Graph, pieceProbs [][]float64, theta int, seed uint64) (*MRRCollection, error) {
	layouts, err := buildLayouts(g, pieceProbs)
	if err != nil {
		return nil, err
	}
	return SampleMRRLayouts(g, layouts, theta, seed)
}

// buildLayouts materializes one PieceLayout per probability vector.
func buildLayouts(g *graph.Graph, pieceProbs [][]float64) ([]*graph.PieceLayout, error) {
	if len(pieceProbs) == 0 {
		return nil, fmt.Errorf("rrset: no pieces")
	}
	layouts := make([]*graph.PieceLayout, len(pieceProbs))
	for j, probs := range pieceProbs {
		lay, err := g.Layout(probs)
		if err != nil {
			return nil, fmt.Errorf("rrset: piece %d: %w", j, err)
		}
		layouts[j] = lay
	}
	return layouts, nil
}

// SampleMRRLayouts draws theta multi-RR samples over one graph from
// prebuilt piece layouts, skipping the per-call layout construction;
// solvers that sample repeatedly over the same campaign (progressive
// estimation, parameter sweeps) prepare the layouts once.
func SampleMRRLayouts(g *graph.Graph, layouts []*graph.PieceLayout, theta int, seed uint64) (*MRRCollection, error) {
	return sampleMRR(g, nil, oneLayer(layouts), theta, seed)
}

// SampleMRRMultiplexLayouts draws theta multi-RR samples over a
// multiplex; layouts[j][a] is piece j's layout on layer a (as built by
// Multiplex.Layouts). Only the benchmark's rrset.sample_mux1_ms row calls
// it.
func SampleMRRMultiplexLayouts(mx *graph.Multiplex, layouts [][]*graph.PieceLayout, theta int, seed uint64) (*MRRCollection, error) {
	return sampleMRR(nil, mx, layouts, theta, seed)
}

// SampleMRRWithRoots draws one multi-RR sample per provided root. It
// exists for golden tests (such as the paper's Table II example) and for
// replaying specific scenarios; production sampling uses SampleMRR.
func SampleMRRWithRoots(g *graph.Graph, pieceProbs [][]float64, roots []int32, seed uint64) (*MRRCollection, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("rrset: no roots")
	}
	for _, r := range roots {
		if r < 0 || int(r) >= g.N() {
			return nil, fmt.Errorf("rrset: root %d outside graph", r)
		}
	}
	layouts, err := buildLayouts(g, pieceProbs)
	if err != nil {
		return nil, err
	}
	m, err := NewMRRCollection(g, layouts, seed)
	if err != nil {
		return nil, err
	}
	m.rootsPinned = true
	m.roots = append([]int32(nil), roots...)
	m.sampleRange(0, len(roots), newWorkerSamplers(m.sub.newPieceSampler))
	return m, nil
}

// ExtendTo grows the collection to theta multi-RR samples, in place:
// roots for the new samples continue the (seed, i) derivation and the
// new sets append into the existing shards, so set contents are
// independent of how growth was scheduled. Calling ExtendTo with
// theta ≤ Theta() is a no-op: a collection never shrinks, and the
// existing samples are untouched. Collections built by
// SampleMRRWithRoots refuse to grow (error on any theta > Theta()):
// their caller-pinned roots would otherwise be silently mixed with
// (seed, i)-derived ones.
func (m *MRRCollection) ExtendTo(theta int) error {
	return m.ExtendToCtx(context.Background(), theta)
}

// extendCtxChunk is the sample granularity at which ExtendToCtx checks
// its context: large enough that the per-chunk scheduling overhead (one
// work-stealing run, one directory entry per block) is noise next to
// the sampling itself, small enough that a canceled multi-second growth
// stops within a few milliseconds.
const extendCtxChunk = 8192

// ExtendToCtx is ExtendTo bounded by a context: growth proceeds in
// chunks of extendCtxChunk samples with a cancellation check between
// chunks. On cancellation the collection is left at a consistent
// intermediate θ — every sample below Theta() is fully materialized and
// bit-identical to an uninterrupted growth (sample i depends only on
// (graph, layouts, seed)), so a later ExtendTo call resumes exactly
// where this one stopped instead of restarting. A context that can
// never be canceled (ctx.Done() == nil) skips the chunking and samples
// the whole delta as one run.
func (m *MRRCollection) ExtendToCtx(ctx context.Context, theta int) error {
	start := m.Theta()
	if theta <= start {
		return nil
	}
	if m.rootsPinned {
		return fmt.Errorf("rrset: collection has caller-pinned roots; extending would mix root distributions")
	}
	chunk := theta - start
	if ctx.Done() != nil && extendCtxChunk < chunk {
		chunk = extendCtxChunk
	}
	n := uint64(m.n)
	var rng xrand.SplitMix64
	samplers := newWorkerSamplers(m.sub.newPieceSampler) // one sampler per worker for the call, not per chunk
	for start < theta {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + chunk
		if end > theta {
			end = theta
		}
		m.roots = append(m.roots, make([]int32, end-start)...)
		for i := start; i < end; i++ {
			rng.Reseed(m.seed, uint64(i))
			m.roots[i] = int32(rng.Uint64n(n))
		}
		m.sampleRange(start, end, samplers)
		start = end
	}
	return nil
}

// sampleRange samples the sets of roots [start, theta), which must
// already be present in m.roots. Each worker samples through its slot of
// samplers, which the caller keeps across the runs of one growth.
func (m *MRRCollection) sampleRange(start, theta int, samplers *workerSamplers) {
	n := uint64(m.n)
	l := m.l
	m.st.extend(theta-start, func(w int) func(i int, sh *shard) {
		s := samplers.get(w)
		// One generator per worker, re-seeded per sample: the sampler
		// interface would otherwise force a heap allocation per sample.
		rng := new(xrand.SplitMix64)
		return func(i int, sh *shard) {
			// Re-burn the root draw (same call, so the stream position
			// matches the root derivation exactly even when Uint64n rejects).
			rng.Reseed(m.seed, uint64(start+i))
			rng.Uint64n(n)
			for j := 0; j < l; j++ {
				sh.nodes = s.samplePiece(m.roots[start+i], j, rng, sh.nodes)
				sh.closeSet()
			}
		}
	})
}
