package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket layout is log-linear and global: each power-of-two octave
// of nanoseconds is split into 2^subBits linear sub-buckets, covering
// [2^minExp, 2^maxExp) ns — 1.024 µs to ~68.7 s — plus an underflow and
// an overflow bucket. Within a bucket the upper bound overestimates a
// true value by at most a factor of 1 + 2^-subBits (25%), which bounds
// the quantile error (see Snapshot.Quantile and the accuracy test).
const (
	subBits    = 2
	subBuckets = 1 << subBits
	minExp     = 10 // 2^10 ns ≈ 1 µs: below this, durations land in the underflow bucket
	maxExp     = 36 // 2^36 ns ≈ 68.7 s: beyond this, the overflow bucket
	// NumBuckets is the fixed length of every histogram's counts array.
	NumBuckets = (maxExp-minExp)*subBuckets + 2
)

// bucketIndex maps a duration in nanoseconds onto the global layout.
func bucketIndex(v int64) int {
	if v < 1<<minExp {
		return 0
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= minExp
	if e >= maxExp {
		return NumBuckets - 1
	}
	sub := (v >> (uint(e) - subBits)) & (subBuckets - 1)
	return 1 + (e-minExp)*subBuckets + int(sub)
}

// BucketBound returns the exclusive upper bound of bucket i as a
// duration. The overflow bucket's bound is reported as the layout
// ceiling (use IsOverflow to render it as +Inf where that matters).
func BucketBound(i int) time.Duration {
	switch {
	case i <= 0:
		return time.Duration(int64(1) << minExp)
	case i >= NumBuckets-1:
		return time.Duration(int64(1) << maxExp)
	}
	j := i - 1
	e := minExp + j/subBuckets
	sub := int64(j % subBuckets)
	// Bucket j spans [2^e·(1 + sub/4), 2^e·(1 + (sub+1)/4)).
	return time.Duration((int64(1) << uint(e-subBits)) * (subBuckets + sub + 1))
}

// IsOverflow reports whether bucket i is the overflow bucket, whose
// true upper bound is +Inf.
func IsOverflow(i int) bool { return i >= NumBuckets-1 }

// Histogram is a lock-free log-bucketed latency histogram: Observe is
// one atomic add on a bucket index computed from the duration's bit
// pattern. The zero value is ready to use. Histograms must not be
// copied once observed into (use Snapshot).
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration. Negative durations count as underflow.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's state into a mergeable value. Under
// concurrent Observe traffic the copy is consistent-enough: each bucket
// is read once, so the snapshot may straddle observations in flight but
// never invents or loses past ones. Count is recomputed from the bucket
// reads so Count always equals the bucket total.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// HistSnapshot is an immutable copy of a histogram over the global
// bucket layout. It answers quantile queries against the bucket bounds.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    time.Duration
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (0 < q <= 1, rank ceil(q·count)). The estimate
// is an upper bound on the true order statistic and overestimates it by
// at most a factor of 1+2^-subBits (25%) for in-range values; an empty
// snapshot returns 0. Values below the layout floor report the floor.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// Mean returns the arithmetic mean of the observed durations (exact,
// from the running sum — not bucket-derived).
func (s *HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
