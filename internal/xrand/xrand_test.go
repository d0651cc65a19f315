package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Streams derived with different indices must differ immediately.
	a := Derive(7, 0)
	b := Derive(7, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams collide on %d of 64 draws", same)
	}
}

func TestDeriveReproducible(t *testing.T) {
	x := Derive(123, 456).Uint64()
	y := Derive(123, 456).Uint64()
	if x != y {
		t.Fatalf("Derive not reproducible: %d != %d", x, y)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) returned %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square style check on a small modulus.
	r := New(2024)
	const n, buckets = 120000, 12
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	expected := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > 0.05*expected {
			t.Fatalf("bucket %d count %d deviates from expected %.0f", b, c, expected)
		}
	}
}

func TestMul64MatchesBig(t *testing.T) {
	// Property: mul64 agrees with the native 128-bit product computed via
	// math/bits-free decomposition on random inputs.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Recompute with a different decomposition.
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		ll := aLo * bLo
		lh := aLo * bHi
		hl := aHi * bLo
		hh := aHi * bHi
		carry := (ll>>32 + lh&0xffffffff + hl&0xffffffff) >> 32
		wantHi := hh + lh>>32 + hl>>32 + carry
		wantLo := a * b
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(100)
		k := r.Intn(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleUniform(t *testing.T) {
	// Each element should appear in a k-of-n sample with probability k/n.
	r := New(77)
	const n, k, trials = 20, 5, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Fatalf("element %d sampled %d times, expected about %.0f", v, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31337)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPowerLawSupport(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.PowerLaw(1, 1000, 2.5)
		if v < 1 || v > 1000 {
			t.Fatalf("PowerLaw out of support: %v", v)
		}
	}
}

func TestPowerLawTailHeaviness(t *testing.T) {
	// A heavier exponent (closer to 2) must yield a larger sample maximum
	// on average than a lighter one (close to 4).
	rHeavy := New(10)
	rLight := New(10)
	maxHeavy, maxLight := 0.0, 0.0
	for i := 0; i < 20000; i++ {
		if v := rHeavy.PowerLaw(1, 1e6, 2.1); v > maxHeavy {
			maxHeavy = v
		}
		if v := rLight.PowerLaw(1, 1e6, 3.9); v > maxLight {
			maxLight = v
		}
	}
	if maxHeavy <= maxLight {
		t.Fatalf("heavy tail max %v not larger than light tail max %v", maxHeavy, maxLight)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Float64()
	}
	_ = sink
}
