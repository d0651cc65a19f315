package core

import "cmp"

// computeBound is Algorithm 2: greedy maximization of the submodular
// hull bound — each pick is the eligible candidate with the largest
// marginal gain, ties broken toward the smaller candidate id, until the
// budget is filled or no candidate improves the bound.
func (ev *evaluator) computeBound(budget int) boundResult {
	res := ev.newResult()
	ev.lazyGreedy(budget, true, &res)
	return ev.finish(res)
}

// lazyGreedy extends res.picks to budget picks by lazy evaluation (CELF,
// Leskovec et al., KDD 2007): the bound is submodular, so a candidate's
// gain only shrinks as the plan grows and a cached gain is an upper
// bound. Instead of rescanning every candidate per pick — the O(k·n) τ
// evaluations of the paper's cost model — the best cached gain is
// recomputed and either re-queued (it fell) or selected (still the
// maximum, so nothing can beat it). The pick sequence is the full scan's
// as long as the bound's marginals do not rise with the count in floating
// point; under α 6, β 2 the hull's marginal at count 2 is one ulp above
// the one at count 1, and on tiny sample sets near-ties can then come out
// in another order (see TestFrontierMatchesReferenceBounds).
//
// Cached gains come from the gain frontier, never from a scan: ev.aff,
// which prepare leaves sorted (a sorted slice is already a heap), and a
// cursor into baseOrder, whose candidates join the heap only when their
// turn comes. With exact set the initial gains are the current ones and
// the first pick costs no evaluation; otherwise (the fill after a
// progressive pass) they are upper bounds and every candidate is
// re-evaluated before selection.
func (ev *evaluator) lazyGreedy(budget int, exact bool, res *boundResult) {
	// An entry is current when its round is this pick's round; initial
	// gains carry round 0.
	round := int32(0)
	if !exact {
		round = 1
	}
	pos := 0
	for len(res.picks) < budget {
		for len(ev.aff) > 0 && !ev.eligible(ev.aff[0].cand) {
			ev.aff = heapPop(ev.aff)
		}
		b, ok := ev.nextBase(&pos)
		if ok && (len(ev.aff) == 0 || b.before(ev.aff[0].gain, ev.aff[0].cand)) {
			pos++
			if round == 0 {
				ev.take(b.cand, res)
				round++
			} else if g := ev.gainOf(b.cand); g > 0 {
				ev.aff = heapPush(ev.aff, gainEntry{gain: g, cand: b.cand, round: round})
			}
			continue
		}
		if len(ev.aff) == 0 {
			return // no candidate improves the bound
		}
		top := &ev.aff[0]
		if top.round == round {
			c := top.cand
			ev.aff = heapPop(ev.aff)
			ev.take(c, res)
			round++
		} else if g := ev.gainOf(top.cand); g > 0 {
			top.gain, top.round = g, round
			siftDown(ev.aff, 0)
		} else {
			ev.aff = heapPop(ev.aff)
		}
	}
}

// gainEntry is a candidate with a cached gain and the greedy round the
// gain was computed in.
type gainEntry struct {
	gain  float64
	cand  candidate
	round int32
}

// before reports whether e precedes (gain, cand) in the order every bound
// routine selects by: gain descending, then candidate ascending.
func (e gainEntry) before(gain float64, cand candidate) bool {
	return e.gain > gain || (e.gain == gain && e.cand < cand)
}

// cmpGain is the same order as a slices.SortFunc comparison.
func cmpGain(a, b gainEntry) int {
	if c := cmp.Compare(b.gain, a.gain); c != 0 {
		return c
	}
	return cmp.Compare(a.cand, b.cand)
}

// A typed binary max-heap over []gainEntry ordered by before (what
// container/heap would box per Push and Pop).

func siftDown(h []gainEntry, i int) {
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			return
		}
		if r := kid + 1; r < len(h) && h[r].before(h[kid].gain, h[kid].cand) {
			kid = r
		}
		if !h[kid].before(h[i].gain, h[i].cand) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

func heapPush(h []gainEntry, e gainEntry) []gainEntry {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent].gain, h[parent].cand) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []gainEntry) []gainEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDown(h, 0)
	return h
}
