package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"oipa/internal/xrand"
)

// Bucket boundaries: each value must land in a bucket whose half-open
// [lower, upper) range contains it, with exact behavior at the edges.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0},
		{1, 0},
		{(1 << minExp) - 1, 0}, // last underflow value
		{1 << minExp, 1},       // first real bucket
		{1<<minExp + 1, 1},
		{(1 << minExp) * 5 / 4, 2},          // second sub-bucket of the first octave
		{(1<<minExp)*5/4 - 1, 1},            // one below its lower edge
		{(1 << minExp) * 6 / 4, 3},          // third sub-bucket
		{(1 << minExp) * 7 / 4, 4},          // fourth sub-bucket
		{(1 << (minExp + 1)), 5},            // next octave starts a new group of 4
		{(1 << maxExp) - 1, NumBuckets - 2}, // last in-range value
		{1 << maxExp, NumBuckets - 1},       // first overflow value
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Structural invariants over the whole layout: bounds strictly
	// increase, and every bucket's upper bound maps to the NEXT bucket
	// (half-open ranges) while upper-1 maps to the bucket itself.
	for i := 0; i < NumBuckets-1; i++ {
		ub := int64(BucketBound(i))
		// The overflow bucket's nominal bound equals the layout ceiling
		// (its true bound is +Inf), so strict increase holds only among
		// the in-range buckets.
		if i < NumBuckets-2 && int64(BucketBound(i+1)) <= ub {
			t.Fatalf("bucket bounds not increasing at %d: %v then %v", i, BucketBound(i), BucketBound(i+1))
		}
		if got := bucketIndex(ub - 1); got != i {
			t.Errorf("bucketIndex(bound(%d)-1) = %d, want %d", i, got, i)
		}
		if got := bucketIndex(ub); got != i+1 {
			t.Errorf("bucketIndex(bound(%d)) = %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramObserveNegativeAndSnapshotCount(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamps to underflow, must not corrupt sum
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Sum != time.Millisecond {
		t.Fatalf("sum = %v, want 1ms", s.Sum)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("underflow bucket = %d, want 1", s.Counts[0])
	}
}

// Concurrent recording: run under -race; the final snapshot must
// account for every observation exactly once.
func TestHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
	)
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(g) + 1)
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(r.Intn(int(10 * time.Second))))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// Quantile accuracy: against a reference sort, the bucket-derived
// quantile must bracket the true order statistic from above by at most
// the layout's relative-error bound (1 + 2^-subBits).
func TestHistogramQuantileAccuracy(t *testing.T) {
	const n = 20000
	var h Histogram
	r := xrand.New(99)
	vals := make([]int64, n)
	for i := range vals {
		// Log-uniform spread across the in-range regime (2µs .. 10s) so
		// every octave gets traffic.
		e := 11 + r.Intn(22)
		v := int64(1)<<uint(e) + int64(r.Intn(1<<uint(e)))
		vals[i] = v
		h.Observe(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	const relBound = 1.0 + 1.0/float64(subBuckets)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		rank := int(math.Ceil(q * n))
		exact := vals[rank-1]
		est := int64(s.Quantile(q))
		if est < exact {
			t.Errorf("q=%v: estimate %d below exact %d", q, est, exact)
		}
		if float64(est) > float64(exact)*relBound {
			t.Errorf("q=%v: estimate %d exceeds exact %d by more than %.2fx", q, est, exact, relBound)
		}
	}
	if got := s.Quantile(0.5); got == 0 {
		t.Fatal("median of populated histogram is 0")
	}
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	s := h.Snapshot()
	if got := s.Mean(); got != 3*time.Millisecond {
		t.Fatalf("mean = %v, want 3ms", got)
	}
}

// Observe must stay allocation-free — it runs on every request.
func TestObserveNoAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times per op, want 0", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
