// Package topic models the topic space of the topic-aware influence model
// (paper §III-A): hidden topics Z, per-edge topic-wise influence vectors
// p(e), and viral pieces t described by topic distributions. A campaign T
// is an ordered list of ℓ pieces.
//
// Topic vectors over real social data are sparse (the paper reports an
// average of only 1.5 non-zero entries per edge on the tweet dataset), so
// the package represents vectors in a sparse index/value form and provides
// the dot products needed to compute per-piece edge probabilities
// p(t, e) = t · p(e).
package topic

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"oipa/internal/xrand"
)

// Vector is a sparse non-negative vector over a topic space: parallel
// slices of strictly increasing topic indices and their values. The zero
// value is the zero vector.
type Vector struct {
	Idx []int32
	Val []float64
}

// ErrMismatch is returned when parallel slices disagree in length.
var ErrMismatch = errors.New("topic: index and value slices have different lengths")

// NewVector builds a sparse vector from parallel index/value slices,
// validating that indices are strictly increasing, non-negative, and that
// values are non-negative. Zero values are dropped.
func NewVector(idx []int32, val []float64) (Vector, error) {
	if len(idx) != len(val) {
		return Vector{}, ErrMismatch
	}
	v := Vector{Idx: make([]int32, 0, len(idx)), Val: make([]float64, 0, len(val))}
	prev := int32(-1)
	for i := range idx {
		if idx[i] <= prev {
			return Vector{}, fmt.Errorf("topic: indices not strictly increasing at position %d", i)
		}
		prev = idx[i]
		if val[i] < 0 || math.IsNaN(val[i]) {
			return Vector{}, fmt.Errorf("topic: invalid value %v at position %d", val[i], i)
		}
		if val[i] == 0 {
			continue
		}
		v.Idx = append(v.Idx, idx[i])
		v.Val = append(v.Val, val[i])
	}
	return v, nil
}

// FromDense builds a sparse vector from a dense slice, dropping zeros.
func FromDense(dense []float64) Vector {
	var v Vector
	for i, x := range dense {
		if x != 0 {
			v.Idx = append(v.Idx, int32(i))
			v.Val = append(v.Val, x)
		}
	}
	return v
}

// Dense expands the vector into a dense slice of length z.
func (v Vector) Dense(z int) []float64 {
	d := make([]float64, z)
	for i, idx := range v.Idx {
		d[idx] = v.Val[i]
	}
	return d
}

// NNZ returns the number of stored non-zero entries.
func (v Vector) NNZ() int { return len(v.Idx) }

// At returns the value at topic index z (0 if absent), by binary search.
func (v Vector) At(z int32) float64 {
	i := sort.Search(len(v.Idx), func(i int) bool { return v.Idx[i] >= z })
	if i < len(v.Idx) && v.Idx[i] == z {
		return v.Val[i]
	}
	return 0
}

// Sum returns the sum of all entries.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x
	}
	return s
}

// Dot returns the inner product of two sparse vectors by index merging.
// This is the hot operation p(t, e) = t · p(e).
func (v Vector) Dot(w Vector) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(v.Idx) && j < len(w.Idx) {
		switch {
		case v.Idx[i] < w.Idx[j]:
			i++
		case v.Idx[i] > w.Idx[j]:
			j++
		default:
			s += v.Val[i] * w.Val[j]
			i++
			j++
		}
	}
	return s
}

// Scale returns a copy of v with all values multiplied by c (c >= 0).
func (v Vector) Scale(c float64) Vector {
	out := Vector{Idx: append([]int32(nil), v.Idx...), Val: make([]float64, len(v.Val))}
	for i, x := range v.Val {
		out.Val[i] = x * c
	}
	return out
}

// Normalize returns a copy of v scaled so its entries sum to 1. The zero
// vector normalizes to itself.
func (v Vector) Normalize() Vector {
	s := v.Sum()
	if s == 0 {
		return v.Clone()
	}
	return v.Scale(1 / s)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	return Vector{
		Idx: append([]int32(nil), v.Idx...),
		Val: append([]float64(nil), v.Val...),
	}
}

// Equal reports exact equality of the sparse representations.
func (v Vector) Equal(w Vector) bool {
	if len(v.Idx) != len(w.Idx) {
		return false
	}
	for i := range v.Idx {
		if v.Idx[i] != w.Idx[i] || v.Val[i] != w.Val[i] {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit FNV-1a digest of the sparse representation
// (indices and IEEE-754 value bits in order). Vectors that are Equal
// hash identically; the graph package's layout cache keys prepared
// per-piece artifacts by this hash (with an Equal check to resolve the
// rare collision).
func (v Vector) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime64
		}
	}
	for i, idx := range v.Idx {
		mix(uint64(uint32(idx)))
		mix(math.Float64bits(v.Val[i]))
	}
	return h
}

// Validate checks the internal invariants (sorted indices, non-negative
// values). It exists so that deserialized vectors can be vetted.
func (v Vector) Validate() error {
	if len(v.Idx) != len(v.Val) {
		return ErrMismatch
	}
	prev := int32(-1)
	for i := range v.Idx {
		if v.Idx[i] <= prev {
			return fmt.Errorf("topic: indices not strictly increasing at position %d", i)
		}
		prev = v.Idx[i]
		if v.Val[i] < 0 || math.IsNaN(v.Val[i]) {
			return fmt.Errorf("topic: invalid value %v at position %d", v.Val[i], i)
		}
	}
	return nil
}

// Piece is one viral piece of a multifaceted campaign: a name plus a topic
// distribution t = (t_1, .., t_|Z|) with t_z the probability the piece
// relates to topic z (paper §III-A).
type Piece struct {
	Name string
	Dist Vector
}

// Campaign is a multifaceted campaign T = {t_1, .., t_ℓ}. The order of
// pieces is significant only as an indexing convention for assignment
// plans.
type Campaign struct {
	Name   string
	Pieces []Piece
}

// L returns ℓ, the number of pieces.
func (c *Campaign) L() int { return len(c.Pieces) }

// Validate checks that every piece's distribution is a valid probability
// vector over z topics (entries sum to 1 within tolerance).
func (c *Campaign) Validate(z int) error {
	if len(c.Pieces) == 0 {
		return errors.New("topic: campaign has no pieces")
	}
	for i, p := range c.Pieces {
		if err := p.Dist.Validate(); err != nil {
			return fmt.Errorf("piece %d (%s): %w", i, p.Name, err)
		}
		if n := p.Dist.NNZ(); n > 0 && int(p.Dist.Idx[n-1]) >= z {
			return fmt.Errorf("piece %d (%s): topic index %d out of range [0,%d)", i, p.Name, p.Dist.Idx[n-1], z)
		}
		if s := p.Dist.Sum(); math.Abs(s-1) > 1e-9 {
			return fmt.Errorf("piece %d (%s): distribution sums to %v, want 1", i, p.Name, s)
		}
	}
	return nil
}

// SingleTopic returns the distribution that puts all mass on topic z.
func SingleTopic(z int32) Vector {
	return Vector{Idx: []int32{z}, Val: []float64{1}}
}

// UniformCampaign builds a campaign of ℓ pieces, each concentrated on one
// topic dimension sampled uniformly at random without replacement when
// possible (with replacement once ℓ exceeds z). This mirrors the paper's
// experimental setup: "For each viral piece, we generate the topic vector
// by uniformly sampling a non-zero topic dimension" (§VI-A).
func UniformCampaign(name string, l, z int, rng *xrand.SplitMix64) Campaign {
	c := Campaign{Name: name, Pieces: make([]Piece, 0, l)}
	var picks []int
	if l <= z {
		picks = rng.Sample(z, l)
	} else {
		picks = make([]int, l)
		for i := range picks {
			picks[i] = rng.Intn(z)
		}
	}
	for i, zi := range picks {
		c.Pieces = append(c.Pieces, Piece{
			Name: fmt.Sprintf("%s-piece-%d", name, i),
			Dist: SingleTopic(int32(zi)),
		})
	}
	return c
}

// Dirichlet draws a length-z probability vector from a symmetric Dirichlet
// distribution with concentration a, then keeps only the top keep entries
// (renormalized) to produce realistic sparse topic mixtures. keep <= 0
// keeps everything.
func Dirichlet(z int, a float64, keep int, rng *xrand.SplitMix64) Vector {
	// Gamma(a) variates via Marsaglia-Tsang for a >= 1, boosted for a < 1.
	g := make([]float64, z)
	total := 0.0
	for i := range g {
		g[i] = gammaVariate(a, rng)
		total += g[i]
	}
	if total == 0 {
		// Degenerate draw; fall back to a uniform distribution.
		for i := range g {
			g[i] = 1
		}
		total = float64(z)
	}
	type kv struct {
		i int
		v float64
	}
	if keep > 0 && keep < z {
		entries := make([]kv, z)
		for i, x := range g {
			entries[i] = kv{i, x}
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].v > entries[b].v })
		entries = entries[:keep]
		sort.Slice(entries, func(a, b int) bool { return entries[a].i < entries[b].i })
		var v Vector
		sub := 0.0
		for _, e := range entries {
			sub += e.v
		}
		for _, e := range entries {
			v.Idx = append(v.Idx, int32(e.i))
			v.Val = append(v.Val, e.v/sub)
		}
		return v
	}
	dense := make([]float64, z)
	for i, x := range g {
		dense[i] = x / total
	}
	return FromDense(dense)
}

// gammaVariate draws a Gamma(shape, 1) variate using Marsaglia-Tsang
// squeeze (2000) with the standard alpha<1 boost.
func gammaVariate(shape float64, rng *xrand.SplitMix64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaVariate(shape+1, rng) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
