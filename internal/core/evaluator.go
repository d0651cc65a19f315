package core

import (
	"math"
	"math/bits"
	"slices"
)

// A candidate is an (assignment) pair of a campaign piece and a promoter,
// encoded as cand = j·poolSize + poolPos. Candidates — not promoters — are
// the unit of branching and of greedy selection, because the same promoter
// may be assigned to several pieces (each assignment consumes one unit of
// the budget k).
type candidate = int32

// evaluator holds the scratch state for upper-bound computations
// (Algorithms 2 and 3). One evaluator serves many evaluations; prepare
// resets it in time proportional to the previous evaluation's touched
// samples rather than θ.
type evaluator struct {
	inst     *Instance
	l        int
	pp       int // pool size
	numCands int
	theta    int // bound instance's sample count, set by bind
	capTheta int // allocated per-sample array capacity, >= theta

	// Per-sample coverage state for the plan under evaluation:
	// masks[i] has bit j set when piece j of sample i is covered,
	// cnts[i] = popcount(masks[i]), refs[i] = count covered by the
	// *partial* plan only (the bound's refinement anchor, Fig. 2).
	// dirty lists the samples with non-zero state, for O(touched) reset,
	// and covered holds the same samples as a θ-bit bitmap, for an
	// ascending walk.
	masks   []uint32
	cnts    []uint8
	refs    []uint8
	dirty   []int32
	covered []uint64

	// Hull bound tables flattened from logistic.BoundTable:
	// value[cA][c] and marg[cA][c] for 0 <= cA <= c <= l.
	value [][]float64
	marg  [][]float64
	// adoptAt[c] is the model's Adoption(c), for utility.
	adoptAt []float64

	// Candidate state for the current evaluation: a stamp equal to epoch
	// means taken by / excluded from the prepared plan, held by the
	// node's frontier, or reached by this prepare's sample walk.
	takenEpoch []uint32
	exclEpoch  []uint32
	affEpoch   []uint32
	reachEpoch []uint32
	epoch      uint32

	// The gain frontier. Under the empty plan candidate c's gain is
	// gainOf's running sum after deg[c] additions of marg[0][0], which is
	// cum[deg[c]]; baseOrder lists the candidates with a positive
	// empty-plan gain by (gain desc, candidate asc). Both are computed
	// once per solve by bind. A partial plan changes the gain of exactly
	// the candidates whose inverted list meets a sample the plan touched;
	// a search node keeps their exact gains as a chain of levels, one per
	// include decision (see level). prepare loads the eligible ones with a
	// positive gain into aff, sorted, and stamps every one in affEpoch;
	// every other candidate's gain is still its empty-plan gain, bit for
	// bit. The bound routines read initial gains from these two sources
	// only.
	deg       []int32
	cum       []float64
	bucket    []int32 // counting-sort scratch for baseOrder
	baseOrder []candidate
	aff       []gainEntry

	// Storage a solve draws on and bind recycles, so a warm search
	// allocates almost nothing per node: level entries (arena), the
	// merge's scratch, the persistent chains, the search heap and the
	// bound's picks.
	arena     []gainEntry
	mergeBuf  []gainEntry
	runs      []mergeRun
	levels    slab[level]
	planNodes slab[planNode]
	exclNodes slab[exclNode]
	babNodes  slab[babNode]
	heap      babHeap
	picks     []candidate

	// tauSum is Σ_i τ_i in per-sample units; multiply by n/θ for the
	// utility scale.
	tauSum float64

	tauEvals int64 // running count of candidate marginal evaluations
}

func newEvaluator(inst *Instance) *evaluator {
	ev := allocEvaluator(inst.L(), inst.Index.PoolSize(), inst.Theta())
	ev.bind(inst)
	return ev
}

// allocEvaluator allocates the scratch arrays for instances of the given
// shape, without binding to a particular instance: the per-sample state
// depends only on theta and the candidate state only on l·pp, so one
// allocation serves every instance whose sample count is at most theta
// and whose candidate shape matches (an instance, its WithK/WithModel
// derivatives, and any θ-prefix of those). EvaluatorPool recycles these
// allocations across concurrent solves.
func allocEvaluator(l, pp, theta int) *evaluator {
	ev := &evaluator{
		l:          l,
		pp:         pp,
		numCands:   l * pp,
		capTheta:   theta,
		masks:      make([]uint32, theta),
		cnts:       make([]uint8, theta),
		refs:       make([]uint8, theta),
		covered:    make([]uint64, (theta+63)/64),
		adoptAt:    make([]float64, l+1),
		takenEpoch: make([]uint32, l*pp),
		exclEpoch:  make([]uint32, l*pp),
		affEpoch:   make([]uint32, l*pp),
		reachEpoch: make([]uint32, l*pp),
		epoch:      1,
		deg:        make([]int32, l*pp),
		baseOrder:  make([]candidate, 0, l*pp),
	}
	ev.value = make([][]float64, l+1)
	ev.marg = make([][]float64, l+1)
	for cA := 0; cA <= l; cA++ {
		ev.value[cA] = make([]float64, l+1)
		ev.marg[cA] = make([]float64, l+1)
	}
	return ev
}

// bind points the evaluator at an instance of its shape: it loads the
// instance's bound tables and adoption curve (which differ across WithModel
// derivatives), adopts the instance's sample count (a θ-prefix instance
// binds with its prefix θ; the arrays are sized to capTheta >= θ),
// zeroes the per-solve counters, recycles the previous solve's levels,
// chains and heap, and computes the empty-plan half of the gain frontier,
// O(candidates). The per-sample scratch is
// assumed clean (fresh allocation or released via resetScratch).
func (ev *evaluator) bind(inst *Instance) {
	ev.inst = inst
	ev.theta = inst.Theta()
	ev.tauEvals = 0
	for cA := 0; cA <= ev.l; cA++ {
		for c := cA; c <= ev.l; c++ {
			ev.value[cA][c] = inst.Bounds.Value(cA, c)
			if c < ev.l {
				ev.marg[cA][c] = inst.Bounds.Marginal(cA, c)
			}
		}
	}
	for c := range ev.adoptAt {
		ev.adoptAt[c] = inst.Problem.Model.Adoption(c)
	}
	ev.arena = ev.arena[:0]
	ev.levels.reset()
	ev.planNodes.reset()
	ev.exclNodes.reset()
	ev.babNodes.reset()
	clear(ev.heap)
	ev.heap = ev.heap[:0]
	ev.bindBase()
}

// bindBase computes every candidate's empty-plan gain and their order.
// With no sample covered gainOf adds marg[0][0] once per list entry, so
// the gain depends on the list length alone: cum[d] repeats that exact
// sequence of additions. For marg[0][0] > 0 cum is strictly increasing
// (one addend is far above half an ulp of a sum of at most θ < 2³¹ of
// them), so (gain desc, candidate asc) is (degree desc, candidate asc),
// which a stable counting sort over degrees produces without comparing.
func (ev *evaluator) bindBase() {
	ix := ev.inst.Index
	maxDeg := 0
	for c := range ev.deg {
		d := ix.Degree(c/ev.pp, int32(c%ev.pp))
		ev.deg[c] = int32(d)
		maxDeg = max(maxDeg, d)
	}
	ev.cum = slices.Grow(ev.cum[:0], maxDeg+1)[:maxDeg+1]
	m00 := ev.marg[0][0]
	ev.cum[0] = 0
	for d := 1; d <= maxDeg; d++ {
		ev.cum[d] = ev.cum[d-1] + m00
	}
	ev.baseOrder = ev.baseOrder[:0]
	if m00 <= 0 {
		return // no candidate has a positive gain
	}
	ev.bucket = slices.Grow(ev.bucket[:0], maxDeg+1)[:maxDeg+1]
	start := ev.bucket // start[d]: count of degree d, then its first slot
	clear(start)
	for _, d := range ev.deg {
		start[d]++
	}
	n := int32(0)
	for d := maxDeg; d >= 1; d-- {
		start[d], n = n, n+start[d]
	}
	ev.baseOrder = ev.baseOrder[:n]
	for c, d := range ev.deg {
		if d > 0 {
			ev.baseOrder[start[d]] = candidate(c)
			start[d]++
		}
	}
}

// baseGain is c's gain under the empty plan — and under any plan that
// does not affect c.
func (ev *evaluator) baseGain(c candidate) float64 { return ev.cum[ev.deg[c]] }

// resetScratch clears the dirty per-sample state and drops the instance
// reference, leaving the evaluator ready for a future bind. Cost is
// proportional to the last evaluation's touched samples.
func (ev *evaluator) resetScratch() {
	ev.clearCoverage()
	ev.tauSum = 0
	ev.inst = nil
}

func (ev *evaluator) clearCoverage() {
	for _, i := range ev.dirty {
		ev.masks[i] = 0
		ev.cnts[i] = 0
		ev.refs[i] = 0
		ev.covered[i>>6] = 0
	}
	ev.dirty = ev.dirty[:0]
}

func (ev *evaluator) pieceOf(c candidate) int   { return int(c) / ev.pp }
func (ev *evaluator) poolPosOf(c candidate) int { return int(c) % ev.pp }

// prepare loads a partial plan (as a chain of included candidates) and
// an exclusion chain and brings the gain frontier up to the plan from
// scratch: every candidate the plan's samples reach is re-evaluated —
// exactly, because re-anchoring refs can raise a marginal above
// marg[0][0] under a steep model, so the empty-plan gain is not even an
// upper bound for them. Cost is proportional to the touched samples and
// the affected candidates, not to the candidate count. The search's root
// prepares this way; every other node derives its frontier from its
// parent's (prepareNode).
func (ev *evaluator) prepare(plan *planNode, excl *exclNode) {
	ev.load(plan, excl)
	start := len(ev.arena)
	ev.arena = ev.reach(ev.dirty, ev.arena)
	ev.mergeFront(&level{entries: ev.arena[start:]})
	ev.arena = ev.arena[:start]
}

// prepareNode prepares the evaluator at a search node whose parent's
// frontier is front, and returns the node's own frontier. An exclude
// child (include false) has its parent's plan, hence its parent's gains,
// and shares front. An include child's plan adds plan.cand: only the
// candidates that candidate's samples reach can have a new gain, so they
// are re-evaluated into one new level on top of front.
func (ev *evaluator) prepareNode(plan *planNode, excl *exclNode, front *level, include bool) *level {
	ev.load(plan, excl)
	if include {
		c := plan.cand
		start := len(ev.arena)
		ev.arena = ev.reach(ev.inst.Index.Samples(ev.pieceOf(c), int32(ev.poolPosOf(c))), ev.arena)
		lv := ev.levels.new()
		*lv = level{parent: front, entries: ev.arena[start:len(ev.arena):len(ev.arena)]}
		front = lv
	}
	ev.mergeFront(front)
	return front
}

// load resets the evaluator and loads a partial plan and an exclusion
// chain. It refines the bound's anchors: refs[i] becomes the piece count
// the partial plan guarantees at sample i (the paper's Fig. 2
// refinement), and tauSum is re-based.
func (ev *evaluator) load(plan *planNode, excl *exclNode) {
	ev.clearCoverage()
	ev.epoch++
	if ev.epoch == 0 {
		// uint32 wrap (a pooled evaluator lives as long as the server):
		// stale stamps from 2³² prepares ago must not read as current.
		clear(ev.takenEpoch)
		clear(ev.exclEpoch)
		clear(ev.affEpoch)
		clear(ev.reachEpoch)
		ev.epoch = 1
	}

	for n := plan; n != nil; n = n.parent {
		ev.takenEpoch[n.cand] = ev.epoch
		ev.coverSamples(n.cand)
	}
	for n := excl; n != nil; n = n.parent {
		ev.exclEpoch[n.cand] = ev.epoch
	}
	// Re-base the bound's anchors at the partial plan's coverage.
	base0 := ev.value[0][0]
	ev.tauSum = float64(ev.theta) * base0
	for _, i := range ev.dirty {
		c := ev.cnts[i]
		ev.refs[i] = c
		ev.tauSum += ev.value[c][c] - base0
	}
}

// reach appends to buf every eligible candidate the given samples reach,
// once, with its exact gain under the loaded plan, sorts the appended
// entries by (gain desc, candidate asc) and returns buf. The index's
// transpose names the candidates; it is built by the first call that
// has a sample to walk.
func (ev *evaluator) reach(samples []int32, buf []gainEntry) []gainEntry {
	if len(samples) == 0 {
		return buf
	}
	start := len(buf)
	tr := ev.inst.Index.Transpose()
	for _, i := range samples {
		for _, c := range tr.Slots(i) {
			if ev.reachEpoch[c] == ev.epoch {
				continue
			}
			ev.reachEpoch[c] = ev.epoch
			if ev.eligible(c) {
				buf = append(buf, gainEntry{gain: ev.gainOf(c), cand: c})
			}
		}
	}
	slices.SortFunc(buf[start:], cmpGain)
	return buf
}

// A level is one include decision's share of a search node's gain
// frontier: the candidates the included candidate's samples reach that
// were eligible then, with their exact gains under the plan that
// includes it, sorted by (gain desc, candidate asc). Gains ≤ 0 stay in:
// the candidate's empty-plan gain no longer holds, so it must still mask
// baseOrder. A node's frontier is its chain of levels, one per include
// on its path, shared with its ancestors like planNode. A candidate's
// gain is the one in the nearest level holding it — no later include
// reached its samples, so the gain has not moved — and a candidate in no
// level has its empty-plan gain. Eligibility only shrinks along a path,
// so entries of candidates taken or excluded since are merely skipped.
type level struct {
	parent  *level
	entries []gainEntry
}

// mergeRun is one level's surviving entries in mergeBuf, [next, end).
type mergeRun struct{ next, end int }

// mergeFront loads the frontier front into aff. Walking nearest level
// first, it stamps every candidate the chain holds in affEpoch — so
// nextBase skips it — and keeps the eligible ones with a positive gain
// at their nearest level's gain; each level's survivors are still sorted,
// so aff is their k-way merge in (gain desc, candidate asc) order, with
// no sort.
func (ev *evaluator) mergeFront(front *level) {
	buf, runs := ev.mergeBuf[:0], ev.runs[:0]
	for lv := front; lv != nil; lv = lv.parent {
		start := len(buf)
		for _, e := range lv.entries {
			if ev.affEpoch[e.cand] == ev.epoch {
				continue // a nearer level holds it
			}
			ev.affEpoch[e.cand] = ev.epoch
			if e.gain > 0 && ev.eligible(e.cand) {
				buf = append(buf, e)
			}
		}
		if len(buf) > start {
			runs = append(runs, mergeRun{start, len(buf)})
		}
	}
	aff := ev.aff[:0]
	for len(runs) > 1 {
		best := 0
		for r := 1; r < len(runs); r++ {
			if e := buf[runs[r].next]; e.before(buf[runs[best].next].gain, buf[runs[best].next].cand) {
				best = r
			}
		}
		aff = append(aff, buf[runs[best].next])
		if runs[best].next++; runs[best].next == runs[best].end {
			runs[best] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	if len(runs) == 1 {
		aff = append(aff, buf[runs[0].next:runs[0].end]...)
	}
	ev.aff, ev.mergeBuf, ev.runs = aff, buf, runs
}

// coverSamples marks candidate c's samples as covered for its piece and
// returns the τ gain in per-sample units (using the *current* refinement
// levels). Used both for plan materialization (where the gain is
// discarded and re-based afterwards) and for greedy additions.
func (ev *evaluator) coverSamples(c candidate) float64 {
	j := ev.pieceOf(c)
	bit := uint32(1) << uint(j)
	gain := 0.0
	for _, i := range ev.inst.Index.Samples(j, int32(ev.poolPosOf(c))) {
		if ev.masks[i]&bit != 0 {
			continue
		}
		if ev.masks[i] == 0 {
			ev.dirty = append(ev.dirty, i)
			ev.covered[i>>6] |= 1 << (i & 63)
		}
		ev.masks[i] |= bit
		gain += ev.marg[ev.refs[i]][ev.cnts[i]]
		ev.cnts[i]++
	}
	ev.tauSum += gain
	return gain
}

// gainOf computes δ_S̄(c): the τ gain of adding candidate c to the current
// state, without modifying the state.
func (ev *evaluator) gainOf(c candidate) float64 {
	j := ev.pieceOf(c)
	bit := uint32(1) << uint(j)
	gain := 0.0
	for _, i := range ev.inst.Index.Samples(j, int32(ev.poolPosOf(c))) {
		if ev.masks[i]&bit == 0 {
			gain += ev.marg[ev.refs[i]][ev.cnts[i]]
		}
	}
	ev.tauEvals++
	return gain
}

func (ev *evaluator) taken(c candidate) bool    { return ev.takenEpoch[c] == ev.epoch }
func (ev *evaluator) excluded(c candidate) bool { return ev.exclEpoch[c] == ev.epoch }
func (ev *evaluator) eligible(c candidate) bool { return !ev.taken(c) && !ev.excluded(c) }

// utility is σ̂ of the plan the evaluator holds — after a bound, the
// loaded plan plus the bound's picks: the adoption probability of each
// covered sample's piece count, summed in ascending sample order by
// walking the covered bitmap, rescaled by n/θ. Those are the terms, the
// order and the arithmetic of Index.EstimateAUWith on the same plan, so
// the value is its float64 bit for bit, read off coverage the bound has
// already built.
func (ev *evaluator) utility() float64 {
	total := 0.0
	for w, word := range ev.covered[:(ev.theta+63)/64] {
		for ; word != 0; word &= word - 1 {
			total += ev.adoptAt[ev.cnts[w<<6|bits.TrailingZeros64(word)]]
		}
	}
	return float64(ev.inst.Index.MRR().N()) * total / float64(ev.theta)
}

// boundResult is the outcome of a bound computation: the greedy additions
// (in selection order; the slice is the evaluator's and is overwritten
// by its next bound), the bound value τ(S̄|S̄a) in utility scale, and the
// first greedy pick (the branch variable; -1 if nothing was added).
type boundResult struct {
	picks  []candidate
	tau    float64
	branch candidate
}

// scale converts per-sample τ units into utility units n/θ·x.
func (ev *evaluator) scale(x float64) float64 {
	return x * float64(ev.inst.Index.MRR().N()) / float64(ev.theta)
}

// bound is ComputeBound at a search node prepared from scratch.
func (ev *evaluator) bound(plan *planNode, excl *exclNode, budget int, eps float64) boundResult {
	ev.prepare(plan, excl)
	return ev.estimate(budget, eps)
}

// estimate runs a bound on the prepared node with `budget` slots left to
// fill: Algorithm 3 with threshold decay eps when eps > 0, Algorithm 2
// when eps is 0.
func (ev *evaluator) estimate(budget int, eps float64) boundResult {
	if eps > 0 {
		return ev.computeBoundPro(budget, eps)
	}
	return ev.computeBound(budget)
}

// computeBoundPro is Algorithm 3: progressive upper-bound estimation.
// Candidates are visited in the order of their initial gain δ_∅ under the
// prepared plan; a threshold h sweeps down by factors of (1+ε), admitting
// any candidate whose current marginal gain reaches it, with two early
// exits — the sorted-prefix break (δ_∅(v) < h implies δ_S̄(v) < h by
// submodularity) and the τ-floor of Algorithm 3 line 14, which may return
// fewer than `budget` picks. The order is never materialized: it is the
// two-pointer merge of the sorted affected entries and baseOrder.
//
// A floor exit with d < budget picks is followed by a lazy greedy
// completion of the remaining slots, which the paper's Algorithm 3 does
// not have: extending a plan only raises the monotone τ, so the
// (1−1/e−ε) bound of Theorem 3 is untouched, while the returned
// *candidate plan* — the search's lower-bound source — reaches full size
// instead of plateauing (the paper's reported BAB-P utilities track BAB
// closely, which a d < k candidate plan cannot do). Theorem 4's
// τ-evaluation bound is what the completion spends.
func (ev *evaluator) computeBoundPro(budget int, eps float64) boundResult {
	res := ev.newResult()
	first, ok := ev.mergeNext(&mergeCursor{})
	if !ok {
		return ev.finish(res) // no candidate improves the bound
	}

	const floorFactor = (1 / math.E) / (1 - 1/math.E)
	h := first.gain
	for len(res.picks) < budget {
		var mc mergeCursor
		for {
			e, ok := ev.mergeNext(&mc)
			if !ok || e.gain < h {
				break // sorted prefix exhausted: δ_∅ < h ⇒ δ_S̄ < h
			}
			if g := ev.gainOf(e.cand); g >= h {
				ev.take(e.cand, &res)
				if len(res.picks) == budget {
					break
				}
			}
		}
		if len(res.picks) == budget {
			break
		}
		h /= 1 + eps
		if h <= ev.tauSum/float64(budget)*floorFactor {
			break // Algorithm 3 line 14: remaining candidates cannot matter
		}
	}
	// The initial gains are upper bounds by now (submodularity), and
	// sorted entries already form a heap.
	ev.lazyGreedy(budget, false, &res)
	return ev.finish(res)
}

// mergeCursor is a position in the merge of aff (sorted) and baseOrder.
type mergeCursor struct{ a, b int }

// mergeNext returns the next eligible candidate in (initial gain desc,
// candidate asc) order, with that gain, and advances the cursor past it.
func (ev *evaluator) mergeNext(mc *mergeCursor) (gainEntry, bool) {
	for mc.a < len(ev.aff) && !ev.eligible(ev.aff[mc.a].cand) {
		mc.a++
	}
	b, ok := ev.nextBase(&mc.b)
	if mc.a < len(ev.aff) && !(ok && b.before(ev.aff[mc.a].gain, ev.aff[mc.a].cand)) {
		mc.a++
		return ev.aff[mc.a-1], true
	}
	if ok {
		mc.b++
	}
	return b, ok
}

// nextBase advances *pos to the next baseOrder candidate that is eligible
// and whose gain the prepared plan left alone, and returns it without
// stepping past it.
func (ev *evaluator) nextBase(pos *int) (gainEntry, bool) {
	for ; *pos < len(ev.baseOrder); *pos++ {
		if c := ev.baseOrder[*pos]; ev.affEpoch[c] != ev.epoch && ev.eligible(c) {
			return gainEntry{gain: ev.baseGain(c), cand: c}, true
		}
	}
	return gainEntry{}, false
}

// newResult starts a bound's result on the evaluator's picks buffer.
func (ev *evaluator) newResult() boundResult {
	return boundResult{picks: ev.picks[:0], branch: -1}
}

// take adds candidate c to the plan under evaluation as the next pick.
func (ev *evaluator) take(c candidate, res *boundResult) {
	ev.takenEpoch[c] = ev.epoch
	ev.coverSamples(c)
	res.picks = append(res.picks, c)
}

// finish fills in the branch variable and the bound value.
func (ev *evaluator) finish(res boundResult) boundResult {
	if len(res.picks) > 0 {
		res.branch = res.picks[0]
	}
	ev.picks = res.picks
	res.tau = ev.scale(ev.tauSum)
	return res
}

// materialize converts a plan chain plus greedy picks into a Plan over
// graph node ids.
func (ev *evaluator) materialize(plan *planNode, picks []candidate) Plan {
	out := NewPlan(ev.l)
	add := func(c candidate) {
		j := ev.pieceOf(c)
		v := ev.inst.Index.Pool()[ev.poolPosOf(c)]
		out.Seeds[j] = append(out.Seeds[j], v)
	}
	for n := plan; n != nil; n = n.parent {
		add(n.cand)
	}
	for _, c := range picks {
		add(c)
	}
	return out
}

// planNode / exclNode are persistent chains recording the include /
// exclude decisions along a branch-and-bound path; children share their
// parents' structure, so memory stays proportional to the number of
// expanded nodes. The search draws them from the evaluator (include,
// exclude).
type planNode struct {
	parent *planNode
	cand   candidate
	size   int
}

func (n *planNode) len() int {
	if n == nil {
		return 0
	}
	return n.size
}

type exclNode struct {
	parent *exclNode
	cand   candidate
}

// include extends plan by c on the evaluator's storage.
func (ev *evaluator) include(plan *planNode, c candidate) *planNode {
	n := ev.planNodes.new()
	*n = planNode{parent: plan, cand: c, size: plan.len() + 1}
	return n
}

// exclude extends excl by c on the evaluator's storage.
func (ev *evaluator) exclude(excl *exclNode, c candidate) *exclNode {
	n := ev.exclNodes.new()
	*n = exclNode{parent: excl, cand: c}
	return n
}

// slab hands out values from fixed-size chunks it keeps across resets:
// pointers stay valid until reset, and a warm evaluator's chunks already
// hold a whole search, so handing out a value allocates nothing.
type slab[T any] struct {
	chunks [][]T
	used   int
}

const slabChunk = 64

// new returns a value the caller must overwrite whole.
func (s *slab[T]) new() *T {
	c, i := s.used/slabChunk, s.used%slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.used++
	return &s.chunks[c][i]
}

// reset recycles every value, dropping what they point to.
func (s *slab[T]) reset() {
	for c := 0; c*slabChunk < s.used; c++ {
		clear(s.chunks[c])
	}
	s.used = 0
}
