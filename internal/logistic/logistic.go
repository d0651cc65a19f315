// Package logistic implements the paper's logistic adoption model (Eq. 1)
// and the per-user upper bound that makes it tractable for
// branch-and-bound (paper §V-B).
//
// A user who receives c distinct pieces of a campaign adopts it with
// probability
//
//	p(c) = 0                         if c == 0
//	p(c) = 1 / (1 + exp(α - β·c))    if c >= 1
//
// with α, β > 0. As a function of the assignment plan this is not
// submodular (the logistic S-curve has an initial convex stretch), so the
// branch-and-bound framework replaces each per-user term with a concave,
// non-decreasing function of the received-piece count that dominates it.
// Such functions of coverage counts sum to a monotone submodular set
// function, which a greedy maximizes with the classic (1 − 1/e)
// guarantee.
//
// The paper draws that function as a tangent line through the operating
// point (β·c0 − α, f(β·c0 − α)), where c0 is the count the partial plan
// under consideration already guarantees (Fig. 2, Algorithm 4). BoundTable
// uses the concave envelope (hull) of Eq. (1)'s adoption values instead:
// the minimal concave non-decreasing majorant on integer counts. It is
// exact at the anchor, so an uncovered user contributes 0 rather than the
// tangent's Sigmoid(−α) > 0. Summed over θ samples that constant alone is
// n·Sigmoid(−α) — on the paper's tweet configuration ~1.2M utility units
// against optima of ~6000, which no relative-gap termination test could
// close. Being concave and non-decreasing, the hull keeps Theorems 2–4
// intact. The tangent construction and Algorithm 4 live on as test
// references in reference_test.go, and TestHullTighterThanTangent checks
// that the hull lies on or below the tangent everywhere.
package logistic

import (
	"errors"
	"fmt"
	"math"
)

// Model holds the logistic adoption parameters of Eq. (1).
type Model struct {
	Alpha float64 // adoption difficulty: larger α → harder to adopt
	Beta  float64 // per-piece weight: larger β → each piece matters more
}

// Validate checks α, β > 0 as the paper requires.
func (m Model) Validate() error {
	if !(m.Alpha > 0) || math.IsInf(m.Alpha, 0) || math.IsNaN(m.Alpha) {
		return fmt.Errorf("logistic: alpha must be positive and finite, got %v", m.Alpha)
	}
	if !(m.Beta > 0) || math.IsInf(m.Beta, 0) || math.IsNaN(m.Beta) {
		return fmt.Errorf("logistic: beta must be positive and finite, got %v", m.Beta)
	}
	return nil
}

// Sigmoid is the standard logistic function f(x) = 1/(1+e^{-x}).
func Sigmoid(x float64) float64 {
	// Numerically stable in both tails.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Adoption returns the adoption probability of a user who received count
// distinct pieces, following Eq. (1) exactly: zero when count is zero.
func (m Model) Adoption(count int) float64 {
	if count <= 0 {
		return 0
	}
	return Sigmoid(m.Beta*float64(count) - m.Alpha)
}

// BoundTable caches, for each possible already-covered piece count
// c0 ∈ {0..L}, the per-user hull bound as a function of the total
// covered count c >= c0. All MRR sample roots share the table, so
// refining the upper bound during branch-and-bound costs a table lookup.
type BoundTable struct {
	L int
	// value[c0][c] for 0 <= c0 <= c <= L; marginal[c0][c] =
	// value[c0][c+1] − value[c0][c].
	value [][]float64
	model Model
}

// ErrBadPieces is returned when a bound table is requested for a
// non-positive piece count.
var ErrBadPieces = errors.New("logistic: piece count must be positive")

// NewBoundTable precomputes the hull bound for counts 0..l.
func NewBoundTable(m Model, l int) (*BoundTable, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if l <= 0 {
		return nil, ErrBadPieces
	}
	t := &BoundTable{L: l, model: m, value: make([][]float64, l+1)}
	for c0 := 0; c0 <= l; c0++ {
		t.value[c0] = make([]float64, l+1)
		fillHullRow(t.value[c0], m, c0, l)
	}
	return t, nil
}

// fillHullRow writes the concave envelope of the adoption points
// {(c0, anchor), (c0+1, f(c0+1)), .., (l, f(l))} into row[c0..l], where
// the anchor is the true adoption value at c0 (zero when c0 == 0).
func fillHullRow(row []float64, m Model, c0, l int) {
	type pt struct{ x, y float64 }
	pts := make([]pt, 0, l-c0+1)
	for c := c0; c <= l; c++ {
		pts = append(pts, pt{float64(c), m.Adoption(c)})
	}
	// Monotone upper hull (Andrew's chain on the upper side).
	hull := make([]pt, 0, len(pts))
	for _, p := range pts {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Remove b when it lies on or below segment a–p (not a hull
			// vertex of the upper envelope).
			if (b.y-a.y)*(p.x-a.x) <= (p.y-a.y)*(b.x-a.x) {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, p)
	}
	// Evaluate the envelope at each integer count by walking segments.
	seg := 0
	for c := c0; c <= l; c++ {
		x := float64(c)
		for seg+1 < len(hull) && hull[seg+1].x < x {
			seg++
		}
		if seg+1 >= len(hull) {
			row[c] = hull[len(hull)-1].y
			continue
		}
		a, b := hull[seg], hull[seg+1]
		if x <= a.x {
			row[c] = a.y
			continue
		}
		frac := (x - a.x) / (b.x - a.x)
		row[c] = a.y + frac*(b.y-a.y)
	}
}

// Model returns the logistic model the table was built for.
func (t *BoundTable) Model() Model { return t.model }

// Value returns the bound value for a root refined at count c0 with c
// covered pieces (c0 <= c <= L required).
func (t *BoundTable) Value(c0, c int) float64 { return t.value[c0][c] }

// Marginal returns Value(c0, c+1) − Value(c0, c): the bound's gain from
// covering one more piece at a root currently at count c. Non-increasing
// in c (the submodularity of the per-root bound).
func (t *BoundTable) Marginal(c0, c int) float64 {
	return t.value[c0][c+1] - t.value[c0][c]
}
