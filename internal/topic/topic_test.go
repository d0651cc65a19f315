package topic

import (
	"math"
	"testing"
	"testing/quick"

	"oipa/internal/xrand"
)

func TestNewVectorValidates(t *testing.T) {
	if _, err := NewVector([]int32{0, 1}, []float64{0.5}); err != ErrMismatch {
		t.Fatal("length mismatch not detected")
	}
	if _, err := NewVector([]int32{1, 0}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("unsorted indices not detected")
	}
	if _, err := NewVector([]int32{0, 0}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("duplicate indices not detected")
	}
	if _, err := NewVector([]int32{0}, []float64{-1}); err == nil {
		t.Fatal("negative value not detected")
	}
	if _, err := NewVector([]int32{0}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN value not detected")
	}
}

func TestNewVectorDropsZeros(t *testing.T) {
	v, err := NewVector([]int32{0, 3, 5}, []float64{0.5, 0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", v.NNZ())
	}
	if v.At(3) != 0 || v.At(0) != 0.5 || v.At(5) != 0.5 {
		t.Fatal("zero-dropping changed values")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		z := 1 + r.Intn(40)
		dense := make([]float64, z)
		for i := range dense {
			if r.Intn(3) == 0 {
				dense[i] = r.Float64()
			}
		}
		v := FromDense(dense)
		back := v.Dense(z)
		for i := range dense {
			if back[i] != dense[i] {
				return false
			}
		}
		return v.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		z := 1 + r.Intn(30)
		a := make([]float64, z)
		b := make([]float64, z)
		for i := 0; i < z; i++ {
			if r.Intn(2) == 0 {
				a[i] = r.Float64()
			}
			if r.Intn(2) == 0 {
				b[i] = r.Float64()
			}
		}
		want := 0.0
		for i := 0; i < z; i++ {
			want += a[i] * b[i]
		}
		va, vb := FromDense(a), FromDense(b)
		return math.Abs(va.Dot(vb)-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotCommutes(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		z := 1 + r.Intn(20)
		a := Dirichlet(z, 0.5, 0, r)
		b := Dirichlet(z, 0.5, 0, r)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndNormalize(t *testing.T) {
	v := FromDense([]float64{1, 0, 3})
	s := v.Scale(2)
	if s.At(0) != 2 || s.At(2) != 6 {
		t.Fatalf("Scale wrong: %+v", s)
	}
	// Original untouched.
	if v.At(0) != 1 {
		t.Fatal("Scale mutated receiver")
	}
	n := v.Normalize()
	if math.Abs(n.Sum()-1) > 1e-12 {
		t.Fatalf("Normalize sum = %v", n.Sum())
	}
	if math.Abs(n.At(2)-0.75) > 1e-12 {
		t.Fatalf("Normalize value = %v, want 0.75", n.At(2))
	}
	zero := Vector{}
	if zn := zero.Normalize(); zn.NNZ() != 0 {
		t.Fatal("normalizing zero vector produced entries")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := FromDense([]float64{1, 2})
	c := v.Clone()
	c.Val[0] = 99
	if v.Val[0] == 99 {
		t.Fatal("Clone shares backing array")
	}
	if !v.Equal(v.Clone()) {
		t.Fatal("Clone not Equal to original")
	}
}

func TestAtBinarySearch(t *testing.T) {
	v := FromDense([]float64{0, 1, 0, 0, 2, 0, 3})
	cases := map[int32]float64{0: 0, 1: 1, 2: 0, 4: 2, 6: 3, 10: 0}
	for z, want := range cases {
		if got := v.At(z); got != want {
			t.Fatalf("At(%d) = %v, want %v", z, got, want)
		}
	}
}

func TestSingleTopic(t *testing.T) {
	v := SingleTopic(7)
	if v.NNZ() != 1 || v.At(7) != 1 || v.Sum() != 1 {
		t.Fatalf("SingleTopic wrong: %+v", v)
	}
}

func TestUniformCampaign(t *testing.T) {
	r := xrand.New(11)
	c := UniformCampaign("test", 5, 20, r)
	if c.L() != 5 {
		t.Fatalf("L = %d, want 5", c.L())
	}
	if err := c.Validate(20); err != nil {
		t.Fatal(err)
	}
	// Each piece is a single-topic distribution.
	seen := map[int32]bool{}
	for _, p := range c.Pieces {
		if p.Dist.NNZ() != 1 {
			t.Fatalf("piece %s not single-topic", p.Name)
		}
		if seen[p.Dist.Idx[0]] {
			t.Fatal("l <= z sampled a duplicate topic")
		}
		seen[p.Dist.Idx[0]] = true
	}
}

func TestUniformCampaignMorePiecesThanTopics(t *testing.T) {
	r := xrand.New(3)
	c := UniformCampaign("big", 8, 3, r)
	if c.L() != 8 {
		t.Fatalf("L = %d, want 8", c.L())
	}
	if err := c.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignValidateCatchesBadSum(t *testing.T) {
	c := Campaign{Name: "bad", Pieces: []Piece{{Name: "p", Dist: FromDense([]float64{0.5, 0.2})}}}
	if err := c.Validate(2); err == nil {
		t.Fatal("non-normalized piece not detected")
	}
	c2 := Campaign{Name: "oob", Pieces: []Piece{{Name: "p", Dist: SingleTopic(5)}}}
	if err := c2.Validate(3); err == nil {
		t.Fatal("out-of-range topic not detected")
	}
	empty := Campaign{Name: "empty"}
	if err := empty.Validate(3); err == nil {
		t.Fatal("empty campaign not detected")
	}
}

func TestDirichletIsDistribution(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		z := 2 + r.Intn(30)
		v := Dirichlet(z, 0.3, 0, r)
		if v.Validate() != nil {
			return false
		}
		return math.Abs(v.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletKeepSparsifies(t *testing.T) {
	r := xrand.New(9)
	for i := 0; i < 50; i++ {
		v := Dirichlet(50, 0.5, 3, r)
		if v.NNZ() > 3 {
			t.Fatalf("keep=3 produced %d entries", v.NNZ())
		}
		if math.Abs(v.Sum()-1) > 1e-9 {
			t.Fatalf("sparsified vector sums to %v", v.Sum())
		}
	}
}

func TestDirichletConcentrationEffect(t *testing.T) {
	// Small concentration -> spiky distributions (high max entry);
	// large concentration -> flat distributions.
	r := xrand.New(21)
	const z, trials = 10, 300
	maxSpiky, maxFlat := 0.0, 0.0
	for i := 0; i < trials; i++ {
		s := Dirichlet(z, 0.05, 0, r)
		f := Dirichlet(z, 50, 0, r)
		for _, x := range s.Val {
			maxSpiky += x * x // sum of squares ~ concentration
		}
		for _, x := range f.Val {
			maxFlat += x * x
		}
	}
	if maxSpiky <= maxFlat {
		t.Fatalf("Dirichlet concentration has no effect: spiky %v vs flat %v", maxSpiky, maxFlat)
	}
}

func TestGammaVariateMean(t *testing.T) {
	// Gamma(shape, 1) has mean shape.
	r := xrand.New(5)
	for _, shape := range []float64{0.3, 1, 2.5} {
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			sum += gammaVariate(shape, r)
		}
		if mean := sum / n; math.Abs(mean-shape)/shape > 0.05 {
			t.Fatalf("gamma(%v) mean = %v", shape, mean)
		}
	}
}

func BenchmarkSparseDot(b *testing.B) {
	r := xrand.New(1)
	a := Dirichlet(50, 0.5, 3, r)
	c := Dirichlet(50, 0.5, 3, r)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = a.Dot(c)
	}
	_ = sink
}
