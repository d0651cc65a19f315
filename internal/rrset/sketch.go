package rrset

import (
	"fmt"
	"math"
	"slices"

	"oipa/internal/logistic"
	"oipa/internal/xrand"
)

// Bottom-k coverage sketches.
//
// Every inverted-list slot of an Index (one per piece × pool position) can
// carry a sketch of its sample ids: each sample i is hashed through the
// collection's deterministic (seed, i) derivation (xrand.Hash, the first
// draw of the stream that sampled i), and the slot stores exactly the
// samples whose hash falls strictly below a per-slot threshold tau. The
// threshold is chosen at build time so a slot holds about k entries and is
// halved (with an O(stored) refilter of that slot only) whenever appends
// push it past 2k, so the sketch is a *relaxed* bottom-k: always between k
// and ~2k of the smallest-hash samples, never fewer than the strict
// bottom-k would keep. Slots shorter than k are stored whole (tau = ∞),
// which makes small-θ estimates exact.
//
// Two properties fall out of the threshold representation:
//
//   - Append-only growth. ExtendFrom appends a new sample to a slot sketch
//     iff its hash beats tau — one predictable compare per inverted-list
//     entry, an amortized O(1) append for the survivors, and never a
//     rebuild: growth stays O(Δθ · avg-set-size) with sketches attached.
//     Like the inverted lists themselves, sketch storage is shared with
//     the grown index where capacity allows (appends land beyond the
//     receiver's lengths), so the receiver stays frozen and readable.
//   - Free prefix re-bounding. A Prefix index keeps the parent's sketch:
//     the stored set cut to ids below the prefix θ is still exactly "every
//     prefix sample hashing below tau", so the estimator just skips ids
//     beyond the limit — no copy, no rebuild, same thresholds.
//
// EstimateAUSketch is the union estimator over these sketches. With
// τ* = min tau over the plan's slots, every stored entry hashing below τ*
// is a coordinated uniform sample of the plan's covered samples, and the
// per-sample piece-coverage counts are *exact* on that sample (an entry
// below τ* is stored by every slot whose list contains it). The adoption
// total over the sample, scaled by 1/τ̂* (τ̂* = τ*/2^64), estimates the
// adoption total over all covered samples; uncovered samples contribute an
// exact zero under Eq. (1). Cost is O(k·|plan|·log) independent of θ.
// When every touched slot is stored whole (τ* = ∞) the estimate is exact
// up to summation order. Exact scan remains the golden reference: sketch
// results are reproducible for a given index lineage but are estimates,
// never bit-identical to EstimateAUWith.

// sketchMaxK caps the accuracy knob at a value where per-slot storage
// (≈2k entries of 12 bytes) stays clearly bounded.
const sketchMaxK = 1 << 20

// sketchSaltTweak decorrelates the sketch hash from the sampling stream.
// The first draw of Derive(seed, i) is exactly what the sampler reduced to
// pick sample i's RR root, so hashing with the raw seed would make h(i) a
// monotone function of root(i) — and a slot's list membership is strongly
// root-correlated, which skews every "uniform" threshold. Folding a
// constant into the seed derives an independent stream while staying a
// pure function of (seed, i).
const sketchSaltTweak = 0xa24baed4963ee407

// sketchSet holds the per-slot sketches of one Index. Immutable once
// published, like the index itself; ExtendFrom derives a grown copy.
type sketchSet struct {
	k    int
	salt uint64   // hash salt: the collection's sampling seed
	tau  []uint64 // per-slot exclusive threshold; MaxUint64 = slot stored whole
	hs   [][]uint64
	ids  [][]int32
}

// sampleHashes returns h(i) for i in [lo, hi) under salt.
func sampleHashes(salt uint64, lo, hi int) []uint64 {
	h := make([]uint64, hi-lo)
	for i := range h {
		h[i] = xrand.Hash(salt, uint64(lo+i))
	}
	return h
}

// buildSlot computes one slot's threshold and stored set from its full
// inverted list. hash[i] is the precomputed hash of sample i.
func buildSlot(list []int32, hash []uint64, k int) (tau uint64, hs []uint64, ids []int32) {
	n := len(list)
	if n <= k {
		// Short slot: store it whole, exact forever.
		hs = make([]uint64, n)
		ids = make([]int32, n)
		for x, i := range list {
			hs[x] = hash[i]
			ids[x] = i
		}
		return math.MaxUint64, hs, ids
	}
	// Aim for ~1.5k stored so the slot starts comfortably inside [k, 2k).
	tau = thresholdFor(1.5*float64(k), n)
	for {
		cnt := 0
		for _, i := range list {
			if hash[i] < tau {
				cnt++
			}
		}
		if cnt < k && tau != math.MaxUint64 {
			tau = doubleTau(tau)
			continue
		}
		if cnt >= 2*k {
			// Only halve if the tighter threshold still keeps ≥ k.
			tighter := tau / 2
			keep := 0
			for _, i := range list {
				if hash[i] < tighter {
					keep++
				}
			}
			if keep >= k {
				tau = tighter
				continue
			}
		}
		hs = make([]uint64, 0, cnt)
		ids = make([]int32, 0, cnt)
		for _, i := range list {
			if hash[i] < tau {
				hs = append(hs, hash[i])
				ids = append(ids, i)
			}
		}
		return tau, hs, ids
	}
}

// thresholdFor returns the hash threshold whose expected stored count over
// n uniform hashes is want.
func thresholdFor(want float64, n int) uint64 {
	frac := want / float64(n)
	if frac >= 1 {
		return math.MaxUint64
	}
	return uint64(math.Ceil(frac * 0x1p64))
}

func doubleTau(tau uint64) uint64 {
	if tau >= math.MaxUint64/2 {
		return math.MaxUint64
	}
	if tau == 0 {
		return 1
	}
	return tau * 2
}

func countBelow(hs []uint64, t uint64) int {
	n := 0
	for _, h := range hs {
		if h < t {
			n++
		}
	}
	return n
}

// compactSlot re-filters one slot to a tighter threshold once appends push
// it to 2k entries, allocating fresh storage so any older index sharing
// the arrays stays frozen. A slot stored whole picks its first finite
// threshold here; thresholded slots halve. Tightening backs off (and
// ultimately gives up, leaving the slot oversized but valid) if fewer than
// k entries would survive.
func (sk *sketchSet) compactSlot(slot int) {
	tau, hs, ids := sk.tau[slot], sk.hs[slot], sk.ids[slot]
	for len(hs) >= 2*sk.k {
		tighter := tau / 2
		if tau == math.MaxUint64 {
			tighter = thresholdFor(1.5*float64(sk.k), len(hs))
		}
		for tighter < tau && countBelow(hs, tighter) < sk.k {
			tighter = doubleTau(tighter)
		}
		if tighter >= tau {
			break
		}
		keep := countBelow(hs, tighter)
		nhs := make([]uint64, 0, keep)
		nids := make([]int32, 0, keep)
		for x, h := range hs {
			if h < tighter {
				nhs = append(nhs, h)
				nids = append(nids, ids[x])
			}
		}
		tau, hs, ids = tighter, nhs, nids
	}
	sk.tau[slot], sk.hs[slot], sk.ids[slot] = tau, hs, ids
}

// memUsage approximates the sketch's resident bytes (capacity, not
// length), its share of Index.MemUsage.
func (sk *sketchSet) memUsage() int64 {
	b := int64(cap(sk.tau))*8 + int64(cap(sk.hs))*24 + int64(cap(sk.ids))*24
	for _, h := range sk.hs {
		b += int64(cap(h)) * 8
	}
	for _, id := range sk.ids {
		b += int64(cap(id)) * 4
	}
	return b
}

// AttachSketches builds a bottom-k sketch for every inverted-list slot,
// with k the accuracy knob (relative error of EstimateAUSketch shrinks
// like 1/√k; k = 256 lands around a few percent). It must be called on a
// full index — prefix derivatives share their parent's sketch and refuse —
// and, like BuildIndex, before the index is shared with concurrent
// readers. Attaching is idempotent and costs one pass over the lists.
func (ix *Index) AttachSketches(k int) error {
	if ix.shared {
		return fmt.Errorf("rrset: cannot attach sketches to a prefix index; attach to the full index it derives from")
	}
	if k <= 0 || k > sketchMaxK {
		return fmt.Errorf("rrset: sketch k must be in [1, %d], got %d", sketchMaxK, k)
	}
	slots := len(ix.lists)
	sk := &sketchSet{
		k:    k,
		salt: ix.salt ^ sketchSaltTweak,
		tau:  make([]uint64, slots),
		hs:   make([][]uint64, slots),
		ids:  make([][]int32, slots),
	}
	hash := sampleHashes(sk.salt, 0, ix.mrr.Theta())
	for slot, list := range ix.lists {
		sk.tau[slot], sk.hs[slot], sk.ids[slot] = buildSlot(list, hash, k)
	}
	ix.sk = sk
	return nil
}

// SketchK returns the accuracy knob the index's sketches were built with,
// or 0 when no sketches are attached.
func (ix *Index) SketchK() int {
	if ix.sk == nil {
		return 0
	}
	return ix.sk.k
}

// HasSketches reports whether EstimateAUSketch can serve this index.
func (ix *Index) HasSketches() bool { return ix.sk != nil }

// SketchScratch is reusable per-caller scratch for EstimateAUSketchWith.
// It is sized by use, not by θ, and is not safe for concurrent use.
type SketchScratch struct {
	ents []sketchEnt
}

type sketchEnt struct {
	h     uint64
	piece int32
}

// NewSketchScratch returns empty scratch for EstimateAUSketchWith.
func NewSketchScratch() *SketchScratch { return &SketchScratch{} }

// EstimateAUSketch estimates σ(S̄) from the per-slot sketches instead of
// walking full inverted lists: cost is O(k·|plan|·log(k·|plan|)),
// independent of θ. Every seed must be a pool member. The result is an
// estimate — exact scan (EstimateAU / EstimateAUWith) remains the golden
// reference — except when every touched slot is short enough to be stored
// whole, in which case the sketch sees every covered sample. An index
// without sketches attached returns an error; callers fall back to exact
// scan.
func (ix *Index) EstimateAUSketch(plan [][]int32, model logistic.Model) (float64, error) {
	return ix.EstimateAUSketchWith(plan, model, NewSketchScratch())
}

// EstimateAUSketchWith is EstimateAUSketch over caller-supplied scratch,
// for callers that estimate repeatedly without per-call allocations.
func (ix *Index) EstimateAUSketchWith(plan [][]int32, model logistic.Model, s *SketchScratch) (float64, error) {
	sk := ix.sk
	if sk == nil {
		return 0, fmt.Errorf("rrset: index has no sketches attached")
	}
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
	pp := len(ix.pool)

	// τ* = min threshold over the plan's slots: below it, membership is
	// complete in every touched slot, so coverage counts are exact on the
	// sampled ids.
	tauStar := uint64(math.MaxUint64)
	for j, seeds := range plan {
		for _, v := range seeds {
			p, ok := ix.PoolPos(v)
			if !ok {
				return 0, fmt.Errorf("rrset: seed %d not in promoter pool", v)
			}
			if t := sk.tau[j*pp+int(p)]; t < tauStar {
				tauStar = t
			}
		}
	}
	if tauStar == 0 {
		return 0, fmt.Errorf("rrset: degenerate sketch threshold")
	}

	// Gather every stored entry below τ* (and, on a prefix index, below
	// the sample limit), tagged with its piece.
	ents := s.ents[:0]
	limit := ix.limit
	for j, seeds := range plan {
		for _, v := range seeds {
			p, _ := ix.PoolPos(v)
			slot := j*pp + int(p)
			hs, ids := sk.hs[slot], sk.ids[slot]
			for x, h := range hs {
				if h < tauStar && ids[x] < limit {
					ents = append(ents, sketchEnt{h: h, piece: int32(j)})
				}
			}
		}
	}
	s.ents = ents

	// Sort by (hash, piece); runs of one hash are one sampled id, distinct
	// pieces within the run are its coverage count (duplicates appear when
	// two seeds of one piece both cover the sample).
	slices.SortFunc(ents, func(a, b sketchEnt) int {
		switch {
		case a.h < b.h:
			return -1
		case a.h > b.h:
			return 1
		default:
			return int(a.piece) - int(b.piece)
		}
	})
	adoptAt := make([]float64, m.l+1)
	for c := 1; c <= m.l; c++ {
		adoptAt[c] = model.Adoption(c)
	}
	total := 0.0
	for x := 0; x < len(ents); {
		h := ents[x].h
		count, last := 0, int32(-1)
		for ; x < len(ents) && ents[x].h == h; x++ {
			if ents[x].piece != last {
				count++
				last = ents[x].piece
			}
		}
		total += adoptAt[count]
	}

	scale := 1.0
	if tauStar != math.MaxUint64 {
		scale = 1 / (float64(tauStar) * 0x1p-64)
	}
	est := float64(m.n) * total * scale / float64(m.Theta())
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return 0, fmt.Errorf("rrset: sketch estimate is not finite")
	}
	return est, nil
}
