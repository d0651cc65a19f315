package logistic

import "math"

// The paper-literal bound construction: the minimal tangent line of
// Fig. 2 and the gradient bisection of Algorithm 4. The solvers use the
// hull (NewBoundTable); these are the references it is checked against.

// SigmoidPrime is f'(x) = f(x)·(1-f(x)).
func SigmoidPrime(x float64) float64 {
	f := Sigmoid(x)
	return f * (1 - f)
}

// Tangent describes the minimal linear upper bound of the logistic curve
// anchored at a point (X0, Sigmoid(X0)): the line passes through the
// anchor and is tangent to the curve at TangencyX >= max(X0, 0).
type Tangent struct {
	X0        float64 // anchor abscissa
	Value0    float64 // Sigmoid(X0)
	Slope     float64 // gradient of the line
	TangencyX float64
}

// At evaluates the (uncapped) tangent line at abscissa x.
func (t Tangent) At(x float64) float64 { return t.Value0 + t.Slope*(x-t.X0) }

// tangentTolerance bounds the bisection error of the tangency search.
const tangentTolerance = 1e-13

// TangentAt computes the minimal linear upper bound of the logistic curve
// through the point (x0, Sigmoid(x0)), valid for all x >= x0.
//
// For x0 >= 0 the curve is concave to the right of the anchor, so the
// tangent at the anchor itself dominates. For x0 < 0 the curve is convex
// near the anchor and the minimal dominating line touches the curve at a
// unique tangency point t > 0, found by bisection on t (equivalent to the
// paper's Algorithm 4, which bisects on the gradient; see RefineGradient).
func TangentAt(x0 float64) Tangent {
	f0 := Sigmoid(x0)
	if x0 >= 0 {
		return Tangent{X0: x0, Value0: f0, Slope: SigmoidPrime(x0), TangencyX: x0}
	}
	// h(t) = f(t) - f'(t)·(t-x0) - f(x0) is the gap at the anchor between
	// the curve value and the tangent-at-t line. h(0) <= 0 (the inflection
	// tangent overshoots for convex x<0) and h(t) -> 1-f(x0) > 0, so a root
	// exists in (0, hi].
	lo, hi := 0.0, 1.0
	for h(hi, x0, f0) <= 0 {
		hi *= 2
		if hi > 1e6 {
			break // unreachable for finite x0; defensive
		}
	}
	for i := 0; i < 200 && hi-lo > tangentTolerance; i++ {
		mid := (lo + hi) / 2
		if h(mid, x0, f0) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	t := (lo + hi) / 2
	return Tangent{X0: x0, Value0: f0, Slope: SigmoidPrime(t), TangencyX: t}
}

// h computes f(t) - f'(t)·(t-x0) - f0: positive once the tangent at t
// passes above the anchor point.
func h(t, x0, f0 float64) float64 {
	return Sigmoid(t) - SigmoidPrime(t)*(t-x0) - f0
}

// RefineGradient is a faithful implementation of the paper's Algorithm 4:
// a binary search on the gradient w ∈ (0, 1/4) for the line through the
// anchor (x0, Sigmoid(x0)) that is tangent to the logistic curve. TangentAt
// (bisection on the tangency abscissa) computes the same line, and the two
// agree to within the tolerance.
func RefineGradient(x0, eps float64) float64 {
	if eps <= 0 {
		eps = 1e-12
	}
	f0 := Sigmoid(x0)
	lo, hi := 0.0, 0.25
	for hi-lo > eps {
		w := (lo + hi) / 2
		// Tangency abscissa t with f'(t) = w, on the concave side:
		// f(t) = (1+sqrt(1-4w))/2, t = log(f/(1-f)).
		s := math.Sqrt(1 - 4*w)
		t := math.Log((1 + s) / (1 - s))
		v := w*t + f0 - w*x0 // line through anchor evaluated at t
		if v > Sigmoid(t) {
			hi = w
		} else {
			lo = w
		}
	}
	return (lo + hi) / 2
}

// tangentTable is the bound table of Fig. 2: row c0 is the minimal tangent
// line through the logistic at the anchor β·c0 − α, as a function of the
// covered count, clamped to 1 when capped. Its anchor at c0 = 0 is
// Sigmoid(−α), not Eq. (1)'s 0.
func tangentTable(m Model, l int, capped bool) *BoundTable {
	t := &BoundTable{L: l, model: m, value: make([][]float64, l+1)}
	for c0 := 0; c0 <= l; c0++ {
		t.value[c0] = make([]float64, l+1)
		tan := TangentAt(m.Beta*float64(c0) - m.Alpha)
		for c := c0; c <= l; c++ {
			v := tan.Value0 + tan.Slope*m.Beta*float64(c-c0)
			if capped && v > 1 {
				v = 1
			}
			t.value[c0][c] = v
		}
	}
	return t
}
