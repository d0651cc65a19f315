package logistic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"oipa/internal/xrand"
)

func TestSigmoidBasics(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	// Symmetry: f(-x) = 1 - f(x).
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 500 {
			return true
		}
		return math.Abs(Sigmoid(-x)-(1-Sigmoid(x))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Extreme tails are stable, not NaN.
	if v := Sigmoid(-1000); v != 0 && (math.IsNaN(v) || v > 1e-300) {
		t.Fatalf("Sigmoid(-1000) = %v", v)
	}
	if v := Sigmoid(1000); v != 1 {
		t.Fatalf("Sigmoid(1000) = %v", v)
	}
}

func TestSigmoidMonotone(t *testing.T) {
	prev := -1.0
	for x := -30.0; x <= 30; x += 0.25 {
		v := Sigmoid(x)
		if v <= prev {
			t.Fatalf("Sigmoid not increasing at %v", x)
		}
		prev = v
	}
}

func TestModelValidate(t *testing.T) {
	good := Model{Alpha: 3, Beta: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Model{
		{Alpha: 0, Beta: 1}, {Alpha: -1, Beta: 1},
		{Alpha: 1, Beta: 0}, {Alpha: 1, Beta: -2},
		{Alpha: math.NaN(), Beta: 1}, {Alpha: 1, Beta: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("model %+v validated", bad)
		}
	}
}

func TestAdoptionMatchesPaperExample(t *testing.T) {
	// Paper Example 1: α = 3, β = 1.
	// One piece: 1/(1+e^{3-1}) = 0.1192...; two pieces: 1/(1+e^{3-2}) = 0.2689...
	m := Model{Alpha: 3, Beta: 1}
	if got := m.Adoption(0); got != 0 {
		t.Fatalf("Adoption(0) = %v, want 0 per Eq. (1)", got)
	}
	if got := m.Adoption(1); math.Abs(got-0.11920292202211755) > 1e-12 {
		t.Fatalf("Adoption(1) = %v", got)
	}
	if got := m.Adoption(2); math.Abs(got-0.2689414213699951) > 1e-12 {
		t.Fatalf("Adoption(2) = %v", got)
	}
}

func TestTangentDominatesCurve(t *testing.T) {
	// Property: for random anchors x0, the tangent line lies on or above
	// the logistic curve for all x >= x0, and touches it at the tangency
	// point and at the anchor.
	r := xrand.New(17)
	for i := 0; i < 500; i++ {
		x0 := r.Float64()*40 - 30 // anchors in [-30, 10]
		tan := TangentAt(x0)
		if math.Abs(tan.At(x0)-Sigmoid(x0)) > 1e-12 {
			t.Fatalf("x0=%v: tangent misses anchor: %v vs %v", x0, tan.At(x0), Sigmoid(x0))
		}
		if math.Abs(tan.At(tan.TangencyX)-Sigmoid(tan.TangencyX)) > 1e-9 {
			t.Fatalf("x0=%v: tangent misses tangency point", x0)
		}
		for j := 0; j < 100; j++ {
			x := x0 + r.Float64()*60
			if tan.At(x) < Sigmoid(x)-1e-9 {
				t.Fatalf("x0=%v: tangent %v below curve %v at x=%v", x0, tan.At(x), Sigmoid(x), x)
			}
		}
	}
}

func TestTangentIsMinimal(t *testing.T) {
	// Any line through the anchor with a slightly smaller slope must dip
	// below the curve somewhere to the right — i.e. the tangent slope is
	// the minimal dominating slope.
	for _, x0 := range []float64{-10, -5, -3, -1, -0.1} {
		tan := TangentAt(x0)
		smaller := tan.Slope * 0.999
		// Check near the tangency point.
		x := tan.TangencyX
		lineVal := tan.Value0 + smaller*(x-x0)
		if lineVal >= Sigmoid(x) {
			t.Fatalf("x0=%v: slope %v still dominates at tangency; tangent not minimal", x0, smaller)
		}
	}
}

func TestTangentConcaveRegion(t *testing.T) {
	// For x0 >= 0 the tangency point is the anchor itself.
	for _, x0 := range []float64{0, 0.5, 2, 10} {
		tan := TangentAt(x0)
		if tan.TangencyX != x0 {
			t.Fatalf("x0=%v: tangency at %v, want anchor", x0, tan.TangencyX)
		}
		if math.Abs(tan.Slope-SigmoidPrime(x0)) > 1e-12 {
			t.Fatalf("x0=%v: slope %v, want f'(x0)=%v", x0, tan.Slope, SigmoidPrime(x0))
		}
	}
}

func TestTangentSlopeDecreasesWithAnchorBelowZero(t *testing.T) {
	// As the anchor moves right toward 0, the tangency point approaches 0
	// and the slope approaches 1/4 — the paper's refinement (Fig. 2) shifts
	// tangent lines to larger gradients as pieces are covered.
	prevSlope := 0.0
	for _, x0 := range []float64{-20, -10, -5, -3, -1} {
		tan := TangentAt(x0)
		if tan.Slope <= prevSlope {
			t.Fatalf("slope not increasing as anchor rises: %v at x0=%v", tan.Slope, x0)
		}
		prevSlope = tan.Slope
	}
	if prevSlope >= 0.25 {
		t.Fatalf("slope %v should stay below 1/4", prevSlope)
	}
}

func TestRefineGradientMatchesTangentAt(t *testing.T) {
	// The paper's Algorithm 4 (bisection on gradient) and our bisection on
	// the tangency abscissa must agree.
	for _, x0 := range []float64{-15, -8, -4, -2, -0.5} {
		w := RefineGradient(x0, 1e-12)
		tan := TangentAt(x0)
		if math.Abs(w-tan.Slope) > 1e-6 {
			t.Fatalf("x0=%v: Algorithm 4 gradient %v vs TangentAt %v", x0, w, tan.Slope)
		}
	}
}

func TestBoundTableDominatesAdoption(t *testing.T) {
	// Property: the reference tangent table's Value(c0, c) >= Adoption(c)
	// for all 0 <= c0 <= c <= L, over random models.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := Model{Alpha: 0.5 + r.Float64()*5, Beta: 0.2 + r.Float64()*3}
		l := 1 + r.Intn(8)
		tbl := tangentTable(m, l, true)
		for c0 := 0; c0 <= l; c0++ {
			for c := c0; c <= l; c++ {
				if tbl.Value(c0, c) < m.Adoption(c)-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundTableRefinementTightens(t *testing.T) {
	// Refining at a higher count gives a weakly tighter bound at that
	// count: Value(c, c) <= Value(c0, c) for c0 <= c — for the hull and
	// for the reference tangent.
	m := Model{Alpha: 3, Beta: 1}
	hull, err := NewBoundTable(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*BoundTable{hull, tangentTable(m, 5, true)} {
		for c0 := 0; c0 <= 5; c0++ {
			for c := c0; c <= 5; c++ {
				if tbl.Value(c, c) > tbl.Value(c0, c)+1e-12 {
					t.Fatalf("refinement at %d loosened bound at %d: %v > %v",
						c, c, tbl.Value(c, c), tbl.Value(c0, c))
				}
			}
		}
	}
}

func TestBoundTableMarginalDiminishes(t *testing.T) {
	// With the cap, the reference tangent's marginals are non-increasing
	// in c (submodularity of the per-root bound).
	m := Model{Alpha: 2, Beta: 1.5}
	tbl := tangentTable(m, 6, true)
	for c0 := 0; c0 <= 6; c0++ {
		prev := math.Inf(1)
		for c := c0; c < 6; c++ {
			mg := tbl.Marginal(c0, c)
			if mg > prev+1e-12 {
				t.Fatalf("marginal increased at c0=%d c=%d: %v > %v", c0, c, mg, prev)
			}
			if mg < 0 {
				t.Fatalf("negative marginal at c0=%d c=%d", c0, c)
			}
			prev = mg
		}
	}
}

func TestBoundTableMarginalMatchesValueDifference(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := Model{Alpha: 0.5 + r.Float64()*4, Beta: 0.3 + r.Float64()*2}
		l := 1 + r.Intn(6)
		hull, err := NewBoundTable(m, l)
		if err != nil {
			return false
		}
		for _, tbl := range []*BoundTable{hull, tangentTable(m, l, true), tangentTable(m, l, false)} {
			for c0 := 0; c0 <= l; c0++ {
				for c := c0; c < l; c++ {
					want := tbl.Value(c0, c+1) - tbl.Value(c0, c)
					if math.Abs(tbl.Marginal(c0, c)-want) > 1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundTableCapTightens(t *testing.T) {
	// The capped reference tangent is never looser than the uncapped one
	// and never exceeds 1.
	m := Model{Alpha: 1, Beta: 2}
	capped, raw := tangentTable(m, 8, true), tangentTable(m, 8, false)
	for c0 := 0; c0 <= 8; c0++ {
		for c := c0; c <= 8; c++ {
			cv, rv := capped.Value(c0, c), raw.Value(c0, c)
			if cv > rv+1e-12 {
				t.Fatalf("capped bound looser at c0=%d c=%d", c0, c)
			}
			if cv > 1+1e-12 {
				t.Fatalf("capped bound exceeds 1 at c0=%d c=%d: %v", c0, c, cv)
			}
		}
	}
	// Uncapped must exceed 1 somewhere on this configuration (β=2 slope).
	if raw.Value(0, 8) <= 1 {
		t.Fatal("expected uncapped bound above 1 in this configuration")
	}
}

func TestHullDominatesAdoptionExactAtAnchor(t *testing.T) {
	// The hull bound dominates Eq. (1)'s adoption everywhere and is exact
	// at the refinement anchor — including the crucial Value(0,0) = 0
	// that keeps branch-and-bound gaps free of the n·Sigmoid(−α) slack.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := Model{Alpha: 0.5 + r.Float64()*5, Beta: 0.2 + r.Float64()*3}
		l := 1 + r.Intn(8)
		tbl, err := NewBoundTable(m, l)
		if err != nil {
			return false
		}
		for c0 := 0; c0 <= l; c0++ {
			if math.Abs(tbl.Value(c0, c0)-m.Adoption(c0)) > 1e-12 {
				return false
			}
			for c := c0; c <= l; c++ {
				if tbl.Value(c0, c) < m.Adoption(c)-1e-12 {
					return false
				}
			}
		}
		return tbl.Value(0, 0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHullIsConcave(t *testing.T) {
	// Marginals of the hull rows must be non-increasing (this is what
	// makes the per-root bound submodular).
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := Model{Alpha: 0.5 + r.Float64()*5, Beta: 0.2 + r.Float64()*3}
		l := 2 + r.Intn(8)
		tbl, err := NewBoundTable(m, l)
		if err != nil {
			return false
		}
		for c0 := 0; c0 <= l; c0++ {
			prev := math.Inf(1)
			for c := c0; c < l; c++ {
				mg := tbl.Marginal(c0, c)
				if mg < -1e-12 || mg > prev+1e-12 {
					return false
				}
				prev = mg
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHullTighterThanTangent(t *testing.T) {
	// Over random models the hull lies on or below both reference
	// tangents — capped and uncapped — at every (c0, c), and strictly
	// below them at the uncovered anchor (0, 0), where the tangent starts
	// at Sigmoid(−α) and the hull at Eq. (1)'s 0.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := Model{Alpha: 0.5 + r.Float64()*5, Beta: 0.2 + r.Float64()*3}
		l := 1 + r.Intn(8)
		hull, err := NewBoundTable(m, l)
		if err != nil {
			return false
		}
		for _, tangent := range []*BoundTable{tangentTable(m, l, true), tangentTable(m, l, false)} {
			for c0 := 0; c0 <= l; c0++ {
				for c := c0; c <= l; c++ {
					if hull.Value(c0, c) > tangent.Value(c0, c)+1e-12 {
						return false
					}
				}
			}
			if hull.Value(0, 0) >= tangent.Value(0, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHullKnownValues(t *testing.T) {
	// α=3, β=1, l=3: the adoption points (0,0), (1,0.119), (2,0.269),
	// (3,0.5) have increasing slopes, so the hull is the straight chord
	// from (0,0) to (3,0.5).
	m := Model{Alpha: 3, Beta: 1}
	tbl, err := NewBoundTable(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5 / 3, 1.0 / 3, 0.5}
	for c := 0; c <= 3; c++ {
		if math.Abs(tbl.Value(0, c)-want[c]) > 1e-12 {
			t.Fatalf("hull Value(0,%d) = %v, want %v", c, tbl.Value(0, c), want[c])
		}
	}
	// Refined at c0=1 the anchor is exact and the remaining points
	// (1,0.119), (2,0.269), (3,0.5) still have increasing slopes, so the
	// row is the chord from (1, f(1)) to (3, f(3)).
	f1, f3 := m.Adoption(1), m.Adoption(3)
	if math.Abs(tbl.Value(1, 2)-(f1+f3)/2) > 1e-12 {
		t.Fatalf("hull Value(1,2) = %v, want %v", tbl.Value(1, 2), (f1+f3)/2)
	}
}

func TestNewBoundTableErrors(t *testing.T) {
	if _, err := NewBoundTable(Model{Alpha: -1, Beta: 1}, 3); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := NewBoundTable(Model{Alpha: 1, Beta: 1}, 0); err != ErrBadPieces {
		t.Fatal("zero piece count accepted")
	}
}

func BenchmarkTangentAt(b *testing.B) {
	var sink Tangent
	for i := 0; i < b.N; i++ {
		sink = TangentAt(-3.0)
	}
	_ = sink
}

func BenchmarkBoundTableMarginal(b *testing.B) {
	tbl, _ := NewBoundTable(Model{Alpha: 3, Beta: 1}, 5)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tbl.Marginal(1, 3)
	}
	_ = sink
}

// TestExportedSurface pins the package's exported names: the model, its
// adoption curve and one bound table, the hull. The tangent construction
// (BoundMode and its modes, TangentAt, RefineGradient) and AdoptionRaw
// exist only in reference_test.go.
func TestExportedSurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var ids []*ast.Ident
				switch d := n.(type) {
				case *ast.FuncDecl:
					ids = append(ids, d.Name)
				case *ast.TypeSpec:
					ids = append(ids, d.Name)
				case *ast.ValueSpec:
					ids = d.Names
				case *ast.Field:
					ids = d.Names
				}
				for _, id := range ids {
					if id.IsExported() {
						got = append(got, id.Name)
					}
				}
				return true
			})
		}
	}
	sort.Strings(got)
	want := []string{"Adoption", "Alpha", "Beta", "BoundTable", "ErrBadPieces", "L", "Marginal",
		"Model", "Model", "NewBoundTable", "Sigmoid", "Validate", "Value"}
	if !slices.Equal(got, want) {
		t.Fatalf("exported names %v, want %v", got, want)
	}
}
