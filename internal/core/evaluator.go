package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"oipa/internal/rrset"
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

	// Per-sample coverage state for the plan under evaluation, one word
	// per sample: the piece mask in the low 32 bits, and above them
	// ref·(l+1)+cnt — sample i's next marginal in marg — with cnt =
	// popcount(mask) and ref the count covered by the *partial* plan only
	// (the bound's refinement anchor, Fig. 2). dirty lists the samples
	// with non-zero state, for O(touched) reset, and covered holds them as
	// a θ-bit bitmap, for an ascending walk. hist[c] counts the covered
	// samples with c ≥ 1 pieces (hist[0] is never read).
	state   []uint64
	dirty   []int32
	covered []uint64
	hist    []int32

	// Hull bound tables flattened from logistic.BoundTable: Value(c, c)
	// in anchored[c], and the marginal from c to c+1 pieces at anchor cA
	// in marg[cA·(l+1)+c].
	anchored []float64
	marg     []float64
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
	// gainOf's running sum after deg[c] additions of marg[0] (anchor 0,
	// count 0), which is cum[deg[c]]; baseOrder lists the candidates with
	// a positive empty-plan gain by (gain desc, candidate asc). deg and
	// baseOrder are the instance lineage's read-only base frontier at θ
	// (baseFrontier), computed once per lineage and θ; bind fills cum,
	// which depends on the model. A partial plan changes the gain of
	// exactly the candidates whose inverted list meets a sample the plan
	// touched; a search node keeps their exact gains as a chain of levels,
	// one per include decision (see level). prepare stamps every one in
	// affEpoch, and owner names the level (by its depth in the chain)
	// whose entry an eligible one with a positive gain survives in, or -1;
	// each level with survivors is one run of the merge, and aff is the
	// merge, produced only as far as a bound reads it (affAt). Every other
	// candidate's gain is still its empty-plan gain, bit for bit. The
	// bound routines read initial gains from these two sources only
	// (mergeNext).
	deg       []int32 // shared, read-only
	cum       []float64
	baseOrder []candidate // shared, read-only
	owner     []int32
	aff       []gainEntry

	// Storage a solve draws on and bind recycles, so a warm search
	// allocates almost nothing per node: level entries (arena), the
	// merge's runs, the persistent chains, the search heap, the lazy
	// greedy's heap and the bound's picks. rootLevel is the level a
	// from-scratch prepare builds.
	arena     []gainEntry
	runs      []mergeRun
	rootLevel level
	levels    slab[level]
	planNodes slab[planNode]
	exclNodes slab[exclNode]
	babNodes  slab[babNode]
	heap      babHeap
	lazyHeap  []gainEntry
	picks     []candidate

	// tauSum is Σ_i τ_i in per-sample units; multiply by n/θ for the
	// utility scale.
	tauSum float64

	tauEvals int64 // running count of candidate marginal evaluations
}

// allocEvaluator allocates the scratch arrays for instances of the given
// shape, without binding to a particular instance: the per-sample state
// depends only on theta and the candidate state only on l·pp, so one
// allocation serves every instance whose sample count is at most theta
// and whose candidate shape matches (an instance, its WithK/WithModel
// derivatives, and any θ-prefix of those). The instance lineage pools
// these allocations across concurrent solves. The empty-plan frontier is
// not scratch: bind borrows it from the instance.
func allocEvaluator(l, pp, theta int) *evaluator {
	ev := &evaluator{
		l:          l,
		pp:         pp,
		numCands:   l * pp,
		capTheta:   theta,
		state:      make([]uint64, theta),
		covered:    make([]uint64, (theta+63)/64),
		hist:       make([]int32, l+1),
		anchored:   make([]float64, l+1),
		marg:       make([]float64, (l+1)*(l+1)),
		adoptAt:    make([]float64, l+1),
		takenEpoch: make([]uint32, l*pp),
		exclEpoch:  make([]uint32, l*pp),
		affEpoch:   make([]uint32, l*pp),
		reachEpoch: make([]uint32, l*pp),
		owner:      make([]int32, l*pp),
		epoch:      1,
	}
	return ev
}

// bind points the evaluator at an instance of its shape: it loads the
// instance's bound tables and adoption curve (which differ across WithModel
// derivatives), adopts the instance's sample count (a θ-prefix instance
// binds with its prefix θ; the arrays are sized to capTheta >= θ),
// zeroes the per-solve counters, recycles the previous solve's levels,
// chains and heap, and binds the empty-plan half of the gain frontier:
// the lineage's degrees and order at θ, read-only, and cum, O(maxDeg).
// The per-sample scratch is assumed clean (fresh allocation or released
// via resetScratch).
func (ev *evaluator) bind(inst *Instance) {
	ev.inst = inst
	ev.theta = inst.Theta()
	ev.tauEvals = 0
	for cA := 0; cA <= ev.l; cA++ {
		ev.anchored[cA] = inst.Bounds.Value(cA, cA)
		for c := cA; c < ev.l; c++ {
			ev.marg[cA*(ev.l+1)+c] = inst.Bounds.Marginal(cA, c)
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

	f := inst.baseFrontier()
	ev.deg, ev.baseOrder = f.deg, f.order
	ev.cum = slices.Grow(ev.cum[:0], f.maxDeg+1)[:f.maxDeg+1]
	m00 := ev.marg[0]
	ev.cum[0] = 0
	for d := 1; d <= f.maxDeg; d++ {
		ev.cum[d] = ev.cum[d-1] + m00
	}
	if m00 <= 0 {
		ev.baseOrder = nil // no candidate has a positive gain
	}
}

// baseFrontier is the model-independent half of the empty-plan gain
// frontier at one θ: every candidate's degree (its inverted list's
// length), their maximum, and the candidates of positive degree by
// (degree desc, candidate asc). With no sample covered gainOf adds
// marg[0] once per list entry, so the gain depends on the list length
// alone: cum[d] repeats that exact sequence of additions. For marg[0] > 0
// cum is strictly increasing (one addend is far above half an ulp of a
// sum of at most θ < 2³¹ of them), so under every model order is the
// (gain desc, candidate asc) order. It is shared and never written after
// newBaseFrontier returns.
type baseFrontier struct {
	theta  int
	deg    []int32
	order  []candidate
	maxDeg int
}

// newBaseFrontier computes ix's frontier, ordering the candidates with a
// stable counting sort over degrees, which compares nothing.
func newBaseFrontier(ix *rrset.Index, l int) *baseFrontier {
	pp := ix.PoolSize()
	f := &baseFrontier{theta: ix.MRR().Theta(), deg: make([]int32, l*pp)}
	for c := range f.deg {
		d := ix.Degree(c/pp, int32(c%pp))
		f.deg[c] = int32(d)
		f.maxDeg = max(f.maxDeg, d)
	}
	start := make([]int32, f.maxDeg+1) // start[d]: count of degree d, then its first slot
	for _, d := range f.deg {
		start[d]++
	}
	n := int32(0)
	for d := f.maxDeg; d >= 1; d-- {
		start[d], n = n, n+start[d]
	}
	f.order = make([]candidate, n)
	for c, d := range f.deg {
		if d > 0 {
			f.order[start[d]] = candidate(c)
			start[d]++
		}
	}
	return f
}

// baseMemoSlots is how many θ values a lineage's baseMemo holds: a
// client can ask for any θ, and four cover a ladder of growth steps.
const baseMemoSlots = 4

// baseMemo holds an instance lineage's base frontiers, one per θ, up to
// baseMemoSlots of them, replacing the oldest first.
type baseMemo struct {
	mu    sync.Mutex
	slots [baseMemoSlots]*baseFrontier
	next  int // the slot a miss fills
}

// baseFrontier returns the instance's frontier at its θ: the lineage's
// memoised one, or on a miss a new one, memoised in place of the oldest.
// A miss computes under the lock, so concurrent first solves at one θ
// compute it once.
func (in *Instance) baseFrontier() *baseFrontier {
	m, theta := &in.lin.base, in.Theta()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.slots {
		if f != nil && f.theta == theta {
			return f
		}
	}
	f := newBaseFrontier(in.Index, in.L())
	m.slots[m.next] = f
	m.next = (m.next + 1) % baseMemoSlots
	return f
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
	ev.inst, ev.deg, ev.baseOrder = nil, nil, nil
}

// clearCoverage zeroes the dirty samples' state, bitmap and hist. Once
// there is a dirty sample per eight bitmap words, a cache line, one bulk
// clear of the bitmap costs less than a scattered write per sample.
func (ev *evaluator) clearCoverage() {
	if words := (ev.theta + 63) / 64; 8*len(ev.dirty) > words {
		clear(ev.covered[:words])
		for _, i := range ev.dirty {
			ev.state[i] = 0
		}
	} else {
		for _, i := range ev.dirty {
			ev.state[i] = 0
			ev.covered[i>>6] = 0
		}
	}
	ev.dirty = ev.dirty[:0]
	clear(ev.hist)
}

func (ev *evaluator) pieceOf(c candidate) int   { return int(c) / ev.pp }
func (ev *evaluator) poolPosOf(c candidate) int { return int(c) % ev.pp }

// samplesOf returns candidate c's inverted list at the bound θ.
func (ev *evaluator) samplesOf(c candidate) []int32 {
	j := ev.pieceOf(c)
	return ev.inst.Index.Samples(j, int32(int(c)-j*ev.pp))
}

// prepare loads a partial plan (as a chain of included candidates) and
// an exclusion chain and brings the gain frontier up to the plan from
// scratch: every candidate the plan's samples reach is re-evaluated —
// exactly, because re-anchoring refs can raise a marginal above
// marg[0] under a steep model, so the empty-plan gain is not even an
// upper bound for them — into one level, rootLevel. Cost is proportional
// to the touched samples and the affected candidates, not to the
// candidate count. The level's arena space is handed back at once: its
// run is read only until the next prepare, which reaches into that space
// again before it merges anew. The search's root prepares this way;
// every other node derives its frontier from its parent's (prepareNode).
func (ev *evaluator) prepare(plan *planNode, excl *exclNode) {
	ev.load(plan, excl)
	start := len(ev.arena)
	ev.arena = ev.reach(ev.dirty, ev.arena)
	ev.rootLevel = level{entries: ev.arena[start:]}
	ev.mergeFront(&ev.rootLevel)
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
		ev.arena = ev.reach(ev.samplesOf(c), ev.arena)
		lv := ev.levels.new()
		*lv = level{parent: front, entries: ev.arena[start:len(ev.arena):len(ev.arena)]}
		front = lv
	}
	ev.mergeFront(front)
	return front
}

// load resets the evaluator and loads a partial plan and an exclusion
// chain. Covering the plan only sets each covered sample's piece bits,
// listing the sample in dirty and covered the first time. The re-base
// then refines the bound's anchors — sample i's ref and cnt become the
// piece count the partial plan guarantees at sample i (the paper's
// Fig. 2 refinement) — counts the sample in hist and re-bases tauSum, in
// the order the samples were first covered.
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

	state, covered, dirty := ev.state, ev.covered, ev.dirty
	for n := plan; n != nil; n = n.parent {
		ev.takenEpoch[n.cand] = ev.epoch
		bit := uint64(1) << uint(ev.pieceOf(n.cand))
		for _, i := range ev.samplesOf(n.cand) {
			if state[i] == 0 {
				dirty = append(dirty, i)
				covered[i>>6] |= 1 << (i & 63)
			}
			state[i] |= bit
		}
	}
	ev.dirty = dirty
	for n := excl; n != nil; n = n.parent {
		ev.exclEpoch[n.cand] = ev.epoch
	}
	anchored, hist, step := ev.anchored, ev.hist, ev.l+2
	base0 := anchored[0]
	tau := float64(ev.theta) * base0
	for _, i := range dirty {
		mask := uint32(state[i])
		c := bits.OnesCount32(mask)
		state[i] = uint64(c*step)<<32 | uint64(mask) // ref = cnt = c
		hist[c]++
		tau += anchored[c] - base0
	}
	ev.tauSum = tau
}

// reach appends to buf every eligible candidate the given samples reach,
// once, with its exact gain under the loaded plan, in the order the walk
// meets them, and returns buf. Nothing is sorted here: the level the
// entries become orders itself only as far as it is read (level.at). The
// index's transpose names the candidates; it is built by the first call
// that has a sample to walk.
func (ev *evaluator) reach(samples []int32, buf []gainEntry) []gainEntry {
	if len(samples) == 0 {
		return buf
	}
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
	return buf
}

// A level is one include decision's share of a search node's gain
// frontier: the candidates the included candidate's samples reach that
// were eligible then, with their exact gains under the plan that
// includes it. Gains ≤ 0 stay in: the candidate's empty-plan gain no
// longer holds, so it must still mask baseOrder. A node's frontier is
// its chain of levels, one per include on its path, shared with its
// ancestors like planNode. A candidate's gain is the one in the nearest
// level holding it — no later include reached its samples, so the gain
// has not moved — and a candidate in no level has its empty-plan gain.
// Eligibility only shrinks along a path, so entries of candidates taken
// or excluded since are merely skipped.
//
// A level is put in (gain desc, candidate asc) order only as far as it
// is read. Its first read turns entries into a max-heap under that
// order, and each read past the ordered part pops the heap's top into
// the slot below the ordered tail: entries[len-sorted:] hold the level's
// first sorted entries, the first in the last slot. The order is
// memoised in the level, which the node's descendants share; a solve
// owns its levels, so nothing locks. It is a strict total order over
// distinct candidates, so entry i is the one a full sort puts at i.
type level struct {
	parent  *level
	entries []gainEntry
	sorted  int
}

// at returns the level's entry i in (gain desc, candidate asc) order,
// for i < len(entries), ordering the level as far as i first.
func (lv *level) at(i int) gainEntry {
	n := len(lv.entries)
	for lv.sorted <= i {
		h := lv.entries[:n-lv.sorted]
		if lv.sorted == 0 {
			for p := len(h)/2 - 1; p >= 0; p-- {
				siftDown(h, p)
			}
		}
		last := len(h) - 1
		h[0], h[last] = h[last], h[0]
		siftDown(h[:last], 0)
		lv.sorted++
	}
	return lv.entries[n-1-i]
}

// mergeRun is one level's survivors in the merge: head is the next one
// not yet handed out, the level's entry pos−1, and left counts it and
// those after it.
type mergeRun struct {
	lv   *level
	id   int32 // the level's depth in the chain, as owner records it
	pos  int
	left int
	head gainEntry
}

// mergeFront loads the frontier front. Walking nearest level first, it
// stamps every candidate the chain holds in affEpoch — so nextBase skips
// it — and, in owner, the level whose entry survives: the nearest one
// holding the candidate, if it is eligible and its gain there positive.
// Each level with survivors is one run, which reads them in the level's
// own order (level.at), so the merge copies and sorts nothing. The merge
// itself is left to affAt: a bound reads a few entries of hundreds.
func (ev *evaluator) mergeFront(front *level) {
	runs := ev.runs[:0]
	id := int32(0)
	for lv := front; lv != nil; lv, id = lv.parent, id+1 {
		left := 0
		for _, e := range lv.entries {
			if ev.affEpoch[e.cand] == ev.epoch {
				continue // a nearer level holds it
			}
			ev.affEpoch[e.cand] = ev.epoch
			if e.gain > 0 && ev.eligible(e.cand) {
				ev.owner[e.cand] = id
				left++
			} else {
				ev.owner[e.cand] = -1
			}
		}
		if left > 0 {
			runs = append(runs, mergeRun{lv: lv, id: id, left: left})
			ev.advance(&runs[len(runs)-1])
		}
	}
	ev.aff, ev.runs = ev.aff[:0], runs
}

// advance moves run r's head to the next of its level's entries that it
// owns; r.left says one is left.
func (ev *evaluator) advance(r *mergeRun) {
	for {
		e := r.lv.at(r.pos)
		r.pos++
		if ev.owner[e.cand] == r.id {
			r.head = e
			return
		}
	}
}

// affAt returns entry i of the merge of the frontier's runs, extending
// the memoised prefix aff one k-way step at a time as far as i — the
// first head in (gain desc, candidate asc) order is handed out and its
// run advanced — or false past the end. Eligibility is not rechecked: a
// reader skips what its bound has taken.
func (ev *evaluator) affAt(i int) (gainEntry, bool) {
	for len(ev.aff) <= i {
		runs := ev.runs
		if len(runs) == 0 {
			return gainEntry{}, false
		}
		best := 0
		for r := 1; r < len(runs); r++ {
			if h := runs[r].head; h.before(runs[best].head.gain, runs[best].head.cand) {
				best = r
			}
		}
		r := &runs[best]
		ev.aff = append(ev.aff, r.head)
		if r.left--; r.left > 0 {
			ev.advance(r)
		} else {
			runs[best] = runs[len(runs)-1]
			ev.runs = runs[:len(runs)-1]
		}
	}
	return ev.aff[i], true
}

// coverSamples marks candidate c's samples as covered for its piece and
// returns the τ gain in per-sample units (using the *current* refinement
// levels). It adds a bound's picks (take); load covers a partial plan
// without the marginals, which its re-base would overwrite.
func (ev *evaluator) coverSamples(c candidate) float64 {
	bit := uint64(1) << uint(ev.pieceOf(c))
	state, covered, dirty, marg, hist := ev.state, ev.covered, ev.dirty, ev.marg, ev.hist
	gain := 0.0
	for _, i := range ev.samplesOf(c) {
		s := state[i]
		if s&bit != 0 {
			continue
		}
		if uint32(s) == 0 {
			dirty = append(dirty, i)
			covered[i>>6] |= 1 << (i & 63)
		}
		state[i] = (s | bit) + 1<<32 // cnt+1
		gain += marg[s>>32]
		cnt := bits.OnesCount32(uint32(s))
		hist[cnt]--
		hist[cnt+1]++
	}
	ev.dirty = dirty
	ev.tauSum += gain
	return gain
}

// gainOf computes δ_S̄(c): the τ gain of adding candidate c to the current
// state, without modifying the state.
func (ev *evaluator) gainOf(c candidate) float64 {
	bit := uint64(1) << uint(ev.pieceOf(c))
	state, marg := ev.state, ev.marg
	gain := 0.0
	for _, i := range ev.samplesOf(c) {
		if s := state[i]; s&bit == 0 {
			gain += marg[s>>32]
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
			total += ev.adoptAt[bits.OnesCount32(uint32(ev.state[w<<6|bits.TrailingZeros64(word)]))]
		}
	}
	return float64(ev.inst.Index.MRR().N()) * total / float64(ev.theta)
}

// utilityBelow reports whether utility() is certainly below x, without
// walking the coverage: the same adoption terms summed by piece count
// from hist. For m covered samples, each sum is within (m+l)·2⁻⁵³ of
// the exact one, relatively (non-negative terms), and the two scalings
// within a few more units; the margin δ = (m+l+16)·2⁻⁵¹ exceeds all of
// them, so true means utility() < x.
func (ev *evaluator) utilityBelow(x float64) bool {
	est := 0.0
	for c := 1; c <= ev.l; c++ {
		est += float64(ev.hist[c]) * ev.adoptAt[c]
	}
	delta := float64(len(ev.dirty)+ev.l+16) * 0x1p-51
	return ev.scale(est)*(1+delta) < x
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
// fewer than `budget` picks. The order is never materialized: it is
// mergeNext's merge of the frontier's entries and baseOrder, and the
// frontier's own merge runs only as deep as the sweep reads.
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
	// The initial gains are upper bounds by now (submodularity).
	ev.lazyGreedy(budget, false, &res)
	return ev.finish(res)
}

// mergeCursor is a position in the merge of aff (sorted) and baseOrder.
type mergeCursor struct{ a, b int }

// mergeNext returns the next eligible candidate in (initial gain desc,
// candidate asc) order, with that gain, and advances the cursor past it.
func (ev *evaluator) mergeNext(mc *mergeCursor) (gainEntry, bool) {
	a, aok := ev.affAt(mc.a)
	for aok && !ev.eligible(a.cand) {
		mc.a++
		a, aok = ev.affAt(mc.a)
	}
	b, ok := ev.nextBase(&mc.b)
	if aok && !(ok && b.before(a.gain, a.cand)) {
		mc.a++
		return a, true
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
