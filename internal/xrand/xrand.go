// Package xrand provides small, fast, deterministic random number
// generators used throughout the repository.
//
// The design constraint is reproducible parallelism: sampling work is
// sharded across goroutines, and every shard must produce exactly the same
// stream it would have produced in a serial run. To that end the package
// exposes SplitMix64, a counter-based generator whose state is a single
// uint64, together with a Derive helper that builds statistically
// independent streams from a (seed, index) pair. Deriving a fresh generator
// per work item makes the output independent of goroutine scheduling.
package xrand

import "math"

// SplitMix64 is a 64-bit state pseudo random generator
// (Steele, Lea, Flood: "Fast splittable pseudorandom number generators",
// OOPSLA 2014). It is extremely fast, passes BigCrush when used as a
// stream, and — crucially for this repository — is trivially splittable.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// New returns a SplitMix64 seeded with seed.
func New(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Derive returns a generator for stream index idx under the given seed.
// Streams with distinct (seed, idx) pairs are statistically independent:
// the pair is mixed through two rounds of the SplitMix64 finalizer before
// becoming the state.
func Derive(seed, idx uint64) *SplitMix64 {
	r := new(SplitMix64)
	r.Reseed(seed, idx)
	return r
}

// Reseed repositions r at the start of stream (seed, idx) — exactly the
// state Derive(seed, idx) starts in — so a worker that draws one stream
// per work item can keep a single generator instead of allocating one
// per item.
func (r *SplitMix64) Reseed(seed, idx uint64) {
	r.state = mix(seed ^ mix(idx+0x9e3779b97f4a7c15))
}

// mix is the 64-bit finalizer from MurmurHash3 as used by SplitMix64.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash returns the first draw of the stream Derive(seed, idx) would
// produce, without allocating a generator. It is the canonical way to
// attach one deterministic uniform 64-bit value to a (seed, index) pair —
// the bottom-k sketches hash sample ids through it so sketches built from
// the same collection seed are reproducible bit-for-bit.
func Hash(seed, idx uint64) uint64 {
	x := mix(seed^mix(idx+0x9e3779b97f4a7c15)) + 0x9e3779b97f4a7c15
	return mix(x)
}

// Uint64 returns the next value in the stream.
func (r *SplitMix64) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *SplitMix64) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method, which avoids the modulo bias of naive reduction.
func (r *SplitMix64) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of the 128-bit product.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method. Adequate for the synthetic generators in this
// repository; not intended for heavy numerical work.
func (r *SplitMix64) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *SplitMix64) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct values drawn uniformly from [0, n) without
// replacement. It uses Floyd's algorithm, O(k) expected time and memory,
// so it stays cheap even when n is in the millions. Results are returned
// in the (deterministic) insertion order of Floyd's algorithm, not sorted.
func (r *SplitMix64) Sample(n, k int) []int {
	if k > n {
		panic("xrand: Sample with k > n")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// PowerLaw returns a variate from a discrete power-law distribution with
// exponent alpha on support [xmin, xmax], drawn by inverting the continuous
// CDF and rounding down. Used by the synthetic degree-sequence generators.
func (r *SplitMix64) PowerLaw(xmin, xmax float64, alpha float64) float64 {
	if xmin <= 0 || xmax < xmin {
		panic("xrand: PowerLaw with invalid support")
	}
	u := r.Float64()
	oneMinus := 1 - alpha
	lo := math.Pow(xmin, oneMinus)
	hi := math.Pow(xmax, oneMinus)
	return math.Pow(lo+u*(hi-lo), 1/oneMinus)
}
