package rrset

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"oipa/internal/logistic"
)

// Index is the inverted view of an MRRCollection restricted to a promoter
// pool: for every (piece j, promoter v) it lists the samples i whose RR
// set R_i^j contains v. The branch-and-bound solvers spend nearly all
// their time walking these lists.
//
// Lists are stored per (piece, pool position) slot with amortized
// capacity, not as one exact-fit CSR: BuildIndex carves the slots out of
// a single arena (so a fresh index is as compact as the old CSR was),
// and ExtendFrom appends only the new samples to each slot — sample ids
// are strictly ascending across growth steps, so a growth step costs
// O(Δθ · avg-set-size), never a full O(θ) re-index.
//
// An Index is built over an immutable MRRView snapshot, so it stays
// consistent even if the source collection keeps growing afterwards.
//
// Pool positions (dense indices into the pool slice) identify promoters
// throughout the solver hot paths; PoolPos translates node ids.
//
// Prefix derives a θ-bounded index sharing this index's list storage: its
// inverted lists stop at sample θ, and its MRR() view reports θ samples,
// so every consumer — solvers, estimators — transparently computes the
// same result it would over an index freshly built at θ.
type Index struct {
	mrr  *MRRView
	pool []int32
	pos  []int32 // node id -> pool position, -1 if not in pool

	// lists[j*len(pool)+p] holds the ascending sample ids whose piece-j
	// RR set contains the promoter at pool position p.
	lists [][]int32

	// limit bounds the sample indices Samples/Degree expose: entries
	// >= limit (present when this is a Prefix of a larger index) are cut
	// off. For a full index limit equals the view's θ, so the bound never
	// fires.
	limit int32

	// shared marks indexes that alias another index's list storage
	// (Prefix derivatives). A shared index must never append — its lists
	// already contain the larger index's tail — so ExtendFrom refuses.
	shared bool

	// salt seeds the sample-id hash of the bottom-k sketches: the
	// collection's sampling seed, recorded at build time so sketches are
	// reproducible for a given (seed, θ) lineage. sk is nil until
	// AttachSketches; see sketch.go.
	salt uint64
	sk   *sketchSet

	// tr is the lineage's transpose, shared with Prefix derivatives and
	// built on first use.
	tr *Transpose
}

// Transpose is the transpose of one index's inverted lists: for every
// sample, the slots whose list holds it. Most samples' RR sets hold no
// pool member, so only the others are stored: has marks them, rank[w]
// counts them in the words before w, and off / slots are a CSR over them
// in sample order. It is built once, by the first Transpose call of any
// index sharing it.
type Transpose struct {
	once  sync.Once
	lists [][]int32 // the owner's lists, every entry below theta; dropped once built
	theta int
	has   []uint64
	rank  []int32
	off   []int64
	slots []int32
}

// Slots returns the slots j·PoolSize()+p, ascending, whose list holds
// sample i (aliases shared storage; do not modify).
func (t *Transpose) Slots(i int32) []int32 {
	if t.has[i>>6]&(1<<(i&63)) == 0 {
		return nil
	}
	r := t.rankOf(i)
	return t.slots[t.off[r]:t.off[r+1]]
}

// rankOf is the number of stored samples below sample i.
func (t *Transpose) rankOf(i int32) int32 {
	w := i >> 6
	return t.rank[w] + int32(bits.OnesCount64(t.has[w]&(1<<(i&63)-1)))
}

// build is a counting sort of the list entries by sample. Slots are
// visited in ascending order, so each sample's slots come out ascending.
func (t *Transpose) build() {
	t.has = make([]uint64, (t.theta+63)/64)
	for _, list := range t.lists {
		for _, i := range list {
			t.has[i>>6] |= 1 << (i & 63)
		}
	}
	t.rank = make([]int32, len(t.has))
	n := int32(0)
	for w, word := range t.has {
		t.rank[w] = n
		n += int32(bits.OnesCount64(word))
	}
	t.off = make([]int64, n+1)
	for _, list := range t.lists {
		for _, i := range list {
			t.off[t.rankOf(i)+1]++
		}
	}
	for r := 1; r < len(t.off); r++ {
		t.off[r] += t.off[r-1]
	}
	// off[r] serves as the r-th stored sample's fill cursor, which leaves
	// it at the next one's start; shifting by one restores the offsets.
	t.slots = make([]int32, t.off[n])
	for slot, list := range t.lists {
		for _, i := range list {
			r := t.rankOf(i)
			t.slots[t.off[r]] = int32(slot)
			t.off[r]++
		}
	}
	copy(t.off[1:], t.off[:n])
	t.off[0] = 0
	t.lists = nil
}

// BuildIndex inverts the collection over the given promoter pool. The
// pool must be non-empty and duplicate-free.
//
// Two passes over the sets: a counting walk sizes every list, then a
// fill pass (parallel over pieces) writes them into one arena.
func (m *MRRCollection) BuildIndex(pool []int32) (*Index, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("rrset: empty promoter pool")
	}
	v := m.View()
	ix := &Index{mrr: v, pool: append([]int32(nil), pool...), pos: make([]int32, v.N()), limit: int32(v.Theta()), salt: m.seed}
	for i := range ix.pos {
		ix.pos[i] = -1
	}
	for p, u := range ix.pool {
		if u < 0 || int(u) >= v.N() {
			return nil, fmt.Errorf("rrset: pool member %d outside graph", u)
		}
		if ix.pos[u] >= 0 {
			return nil, fmt.Errorf("rrset: duplicate pool member %d", u)
		}
		ix.pos[u] = int32(p)
	}

	l, theta, pp := v.l, v.Theta(), len(pool)
	counts := make([]int64, l*pp+1)
	for i := 0; i < theta; i++ {
		for j := 0; j < l; j++ {
			for _, u := range v.Set(i, j) {
				if p := ix.pos[u]; p >= 0 {
					counts[j*pp+int(p)+1]++
				}
			}
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	off := counts
	arena := make([]int32, off[len(off)-1])

	// Fill pass, parallel over pieces: piece j's slots [j·pp, (j+1)·pp)
	// are disjoint from every other piece's, and within a slot samples
	// are appended in ascending i — the same order the sample-major walk
	// produced.
	cursor := make([]int64, l*pp)
	var wg sync.WaitGroup
	for j := 0; j < l; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := 0; i < theta; i++ {
				for _, u := range v.Set(i, j) {
					if p := ix.pos[u]; p >= 0 {
						slot := j*pp + int(p)
						arena[off[slot]+cursor[slot]] = int32(i)
						cursor[slot]++
					}
				}
			}
		}(j)
	}
	wg.Wait()

	// Carve the arena into per-slot lists. Capacity is capped at each
	// slot's exact length, so a first ExtendFrom reallocates the slots it
	// touches (amortized-doubling afterwards) instead of scribbling over
	// a neighbor's samples.
	ix.lists = make([][]int32, l*pp)
	for slot := range ix.lists {
		ix.lists[slot] = arena[off[slot]:off[slot+1]:off[slot+1]]
	}
	ix.tr = &Transpose{lists: ix.lists, theta: theta}
	return ix, nil
}

// ExtendFrom returns an index over m's current samples by appending only
// the delta — samples [oldθ, newθ), where oldθ is this index's sample
// count — to each (piece, promoter) list: growth cost is proportional to
// the new samples' total RR size, never to the full θ (the old exact-fit
// CSR forced a complete rebuild per growth step). Sample ids are strictly
// ascending across growth steps, so every list stays sorted and the
// result is bit-identical to a fresh BuildIndex at newθ (pinned by golden
// tests).
//
// m must be the collection the index was built over, grown in place by
// ExtendTo. The receiver stays valid and frozen at its θ: list storage is
// shared where capacity allows (appends land beyond the receiver's list
// lengths, which its readers never touch), and reallocated where it does
// not. ExtendFrom must not run concurrently with itself or other
// mutators of the same index lineage — the serve registry serializes
// growth behind a per-entry lock — but concurrent readers of the
// receiver (and of its Prefix derivatives) are safe. Prefix-derived
// indexes refuse to extend (CheckExtend).
func (ix *Index) ExtendFrom(m *MRRCollection) (*Index, error) {
	if err := ix.CheckExtend(); err != nil {
		return nil, err
	}
	v := m.View()
	if !v.sub.same(ix.mrr.sub) || v.l != ix.mrr.l {
		return nil, fmt.Errorf("rrset: collection does not match the indexed one")
	}
	oldTheta, newTheta := ix.mrr.Theta(), v.Theta()
	if newTheta < oldTheta {
		return nil, fmt.Errorf("rrset: collection theta %d below index theta %d", newTheta, oldTheta)
	}
	if newTheta == oldTheta {
		return ix, nil
	}
	pp := len(ix.pool)
	lists := append([][]int32(nil), ix.lists...)

	// Sketch growth rides the same fill pass: a new sample joins a slot's
	// sketch iff its hash beats the slot threshold — one compare per
	// inverted-list entry, appends shared with the receiver's storage the
	// same way the lists are, and a per-slot refilter (fresh allocation,
	// receiver untouched) only when a slot outgrows 2k. Never a rebuild:
	// growth stays O(Δθ · avg-set-size) with sketches attached.
	var sk2 *sketchSet
	var dh []uint64 // hash of sample oldθ+x at dh[x]
	if ix.sk != nil {
		sk2 = &sketchSet{
			k:    ix.sk.k,
			salt: ix.sk.salt,
			tau:  append([]uint64(nil), ix.sk.tau...),
			hs:   append([][]uint64(nil), ix.sk.hs...),
			ids:  append([][]int32(nil), ix.sk.ids...),
		}
		dh = sampleHashes(sk2.salt, oldTheta, newTheta)
	}
	var wg sync.WaitGroup
	for j := 0; j < v.l; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := oldTheta; i < newTheta; i++ {
				for _, u := range v.Set(i, j) {
					if p := ix.pos[u]; p >= 0 {
						slot := j*pp + int(p)
						lists[slot] = append(lists[slot], int32(i))
						if sk2 != nil {
							if h := dh[i-oldTheta]; h < sk2.tau[slot] {
								sk2.hs[slot] = append(sk2.hs[slot], h)
								sk2.ids[slot] = append(sk2.ids[slot], int32(i))
								if len(sk2.hs[slot]) >= 2*sk2.k {
									sk2.compactSlot(slot)
								}
							}
						}
					}
				}
			}
		}(j)
	}
	wg.Wait()
	return &Index{mrr: v, pool: ix.pool, pos: ix.pos, lists: lists, limit: int32(newTheta), salt: ix.salt, sk: sk2,
		tr: &Transpose{lists: lists, theta: newTheta}}, nil
}

// MRR returns the immutable sample view the index was built over (for a
// prefix index, the θ-prefix of that view).
func (ix *Index) MRR() *MRRView { return ix.mrr }

// Prefix returns an index bounded to the first theta samples, sharing
// this index's list storage: Samples and Degree cut their (ascending)
// inverted lists at sample theta, and MRR() is the θ-prefix view, so
// solver results over the prefix index are bit-identical to an index
// freshly built over a θ-sample collection (pinned by golden tests).
// Derivation is O(1) in the collection size; theta must lie in
// [1, MRR().Theta()], and passing the full θ returns the index itself.
func (ix *Index) Prefix(theta int) (*Index, error) {
	v, err := ix.mrr.Prefix(theta)
	if err != nil {
		return nil, err
	}
	if v == ix.mrr {
		return ix, nil
	}
	return &Index{
		mrr:    v,
		pool:   ix.pool,
		pos:    ix.pos,
		lists:  ix.lists,
		limit:  int32(theta),
		shared: true,
		salt:   ix.salt,
		// The parent's sketches re-bound for free: the stored set cut to
		// ids below θ is exactly "every prefix sample hashing below tau",
		// so EstimateAUSketch just skips ids beyond the limit.
		sk: ix.sk,
		tr: ix.tr,
	}, nil
}

// CheckExtend refuses an index ExtendFrom cannot grow: a Prefix-derived
// one, whose lists alias a larger index's storage and already contain
// the tail. A caller that samples before extending checks it first.
func (ix *Index) CheckExtend() error {
	if ix.shared {
		return fmt.Errorf("rrset: cannot extend a prefix index; extend the full index it derives from")
	}
	return nil
}

// Transpose returns the transpose of the inverted lists: per sample, the
// (piece, promoter) slots its RR sets reach, found without walking the
// sets or translating node ids. It is built on the first call, once per
// index lineage: a Prefix derivative shares its parent's (it reads only
// samples below its θ, and whether a list holds such a sample does not
// depend on where the list is cut), while ExtendFrom starts a fresh one.
// Safe for concurrent use.
func (ix *Index) Transpose() *Transpose {
	t := ix.tr
	t.once.Do(t.build)
	return t
}

// MemUsage approximates the index's resident bytes: the inverted lists
// (capacity, not length), the pool translation arrays, the list headers
// and any attached sketches. It is the serve registry's resident_bytes
// accounting unit. The figure is a lower bound after growth — slots that
// outgrew the original build arena leave holes in it that are still
// reachable — and exact for freshly built indexes, whose slots are
// carved tight.
//
// The transpose is left out. The first search that needs it builds it
// (Transpose), outside any build the registry books, so counting it
// would move the figure under readers alone. Once built it holds 4 bytes
// per list entry, as the lists do, plus 8 per sample some list holds
// and 12 per 64 samples.
//
// A Prefix derivative owns nothing: lists, pool arrays, sketches and the
// transpose all alias its parent's storage. It reports 0 so an artifact
// lineage holding both the full index and a served prefix is not
// double-counted in the registry's resident gauge.
func (ix *Index) MemUsage() int64 {
	if ix.shared {
		return 0
	}
	b := int64(len(ix.pos))*4 + int64(len(ix.pool))*4
	b += int64(cap(ix.lists)) * 24 // slice headers
	for _, l := range ix.lists {
		b += int64(cap(l)) * 4
	}
	if ix.sk != nil {
		b += ix.sk.memUsage()
	}
	return b
}

// Pool returns the promoter pool (do not modify).
func (ix *Index) Pool() []int32 { return ix.pool }

// PoolSize returns the number of eligible promoters.
func (ix *Index) PoolSize() int { return len(ix.pool) }

// PoolPos returns the dense pool position of node v, or false if v is not
// an eligible promoter (including ids outside the graph).
func (ix *Index) PoolPos(v int32) (int32, bool) {
	if v < 0 || int(v) >= len(ix.pos) {
		return -1, false
	}
	p := ix.pos[v]
	return p, p >= 0
}

// Samples returns the sample indices whose RR set for piece j contains
// the promoter at pool position p (aliases internal storage). On a
// prefix index the list stops before sample θ; lists are ascending, so
// the cut is one binary search — and on a full index the last entry is
// always below the limit, so the fast path returns the whole list with
// no search at all.
func (ix *Index) Samples(j int, p int32) []int32 {
	list := ix.lists[j*len(ix.pool)+int(p)]
	if n := len(list); n > 0 && list[n-1] >= ix.limit {
		list = list[:sort.Search(n, func(i int) bool { return list[i] >= ix.limit })]
	}
	return list
}

// Degree returns len(Samples(j, p)) without materializing the slice.
func (ix *Index) Degree(j int, p int32) int {
	return len(ix.Samples(j, p))
}

// AUScratch is reusable per-caller scratch for EstimateAUWith: two
// θ-sized arrays, a θ-bit bitmap of the samples they hold state for —
// walked in ascending order to sum and to clean up, over the word range
// the evaluation touched rather than θ — and the call's
// adoption-by-piece-count table. The zero value is ready to use:
// EstimateAUWith grows the arrays to the largest θ it meets, so one
// scratch serves many sequential estimates over any indexes. It is not
// safe for concurrent use.
type AUScratch struct {
	counts    []uint8
	pieceSeen []int32
	touched   []uint64 // bit i: counts[i] > 0
	adoptAt   []float64
}

// EstimateAU estimates σ(S̄) through the index: every seed must be a pool
// member. Cost is proportional to the seeds' total inverted-list length
// rather than the full collection size.
func (ix *Index) EstimateAU(plan [][]int32, model logistic.Model) (float64, error) {
	return ix.EstimateAUWith(plan, model, new(AUScratch))
}

// EstimateAUWith is EstimateAU over caller-supplied scratch, for hot
// paths that estimate repeatedly (the serve tier's /v1/estimate): no
// per-call θ-sized allocation once the scratch has grown to the largest
// θ it meets, and the scratch is returned clean for the next call. The
// result is the θ-scan's float64 bit for bit (EstimateAUScan, or
// AUEstimator.EstimateAUPrefix at this index's θ) on every plan whose
// seeds are all pool members. Estimating over an index of an empty
// collection is an error (there is no sample mean to report), never NaN
// — the same guard EstimateAUScan applies.
func (ix *Index) EstimateAUWith(plan [][]int32, model logistic.Model, s *AUScratch) (float64, error) {
	m := ix.mrr
	if m.Theta() == 0 {
		return 0, fmt.Errorf("rrset: estimate over an empty collection")
	}
	if len(plan) != m.l {
		return 0, fmt.Errorf("rrset: plan has %d seed sets for %d pieces", len(plan), m.l)
	}
	if err := model.Validate(); err != nil {
		return 0, err
	}
	if theta := m.Theta(); len(s.counts) < theta {
		// Fresh arrays are zero, which is the clean state: nothing to copy.
		s.counts, s.pieceSeen, s.touched = make([]uint8, theta), make([]int32, theta), make([]uint64, (theta+63)/64)
	}
	adoptAt := append(s.adoptAt[:0], 0)
	for c := 1; c <= m.l; c++ {
		adoptAt = append(adoptAt, model.Adoption(c))
	}
	s.adoptAt = adoptAt
	// counts[i] tracks per-sample piece coverage; the piece guard lives
	// in pieceSeen (sample -> last piece marked, +1) to avoid double
	// counting a piece covered by two of its seeds. Every pieceSeen
	// write is paired with a counts increment, so the touched bits —
	// samples whose counts went 0→1 — cover every dirtied entry; lo and
	// hi bound the words holding them.
	counts, pieceSeen, touched := s.counts, s.pieceSeen, s.touched
	lo, hi := len(touched), -1
	for j, seeds := range plan {
		for _, v := range seeds {
			p, ok := ix.PoolPos(v)
			if !ok {
				// Clean up the partial walk before failing.
				s.clean(lo, hi)
				return 0, fmt.Errorf("rrset: seed %d not in promoter pool", v)
			}
			for _, i := range ix.Samples(j, p) {
				if pieceSeen[i] == int32(j)+1 {
					continue // piece j already covered at sample i
				}
				pieceSeen[i] = int32(j) + 1
				if counts[i] == 0 {
					w := int(i >> 6)
					touched[w] |= 1 << (i & 63)
					lo, hi = min(lo, w), max(hi, w)
				}
				counts[i]++
			}
		}
	}
	// Sum adoption over touched samples in ascending sample order — the
	// same order EstimateAUScan accumulates in. A running telescoped sum
	// in list-traversal order rounds differently for some inputs, which
	// made "index estimate == scan estimate" hold only coincidentally;
	// summing final per-sample adoptions in sample order makes the two
	// paths bit-identical by construction (untouched samples contribute
	// an exact 0 to the scan's total, so skipping them changes nothing).
	total := 0.0
	for w := lo; w <= hi; w++ {
		for word := touched[w]; word != 0; word &= word - 1 {
			total += adoptAt[counts[w<<6|bits.TrailingZeros64(word)]]
		}
	}
	s.clean(lo, hi)
	return float64(m.n) * total / float64(m.Theta()), nil
}

// clean clears the state of the touched samples in words [lo, hi].
func (s *AUScratch) clean(lo, hi int) {
	for w := lo; w <= hi; w++ {
		for word := s.touched[w]; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			s.counts[i] = 0
			s.pieceSeen[i] = 0
		}
		s.touched[w] = 0
	}
}
