package im

import (
	"fmt"
	"math"

	"oipa/internal/graph"
	"oipa/internal/rrset"
)

// IMMOptions tunes the IMM algorithm.
type IMMOptions struct {
	// Epsilon is the approximation slack: IMM returns a (1−1/e−ε)
	// approximate seed set with probability at least 1 − n^−Ell.
	Epsilon float64
	// Ell controls the failure probability n^−Ell.
	Ell float64
	// Seed drives the RR sampling.
	Seed uint64
	// MaxTheta caps the sample count as a safety valve for tiny ε on
	// large graphs (0 = no cap).
	MaxTheta int
}

// DefaultIMMOptions mirrors the defaults used in the IMM paper's
// experiments (ε = 0.5, ℓ = 1).
func DefaultIMMOptions(seed uint64) IMMOptions {
	return IMMOptions{Epsilon: 0.5, Ell: 1, Seed: seed}
}

// IMMResult reports the selected seeds and the sampling effort.
type IMMResult struct {
	CoverResult
	Theta int     // number of RR sets used in the final selection
	LB    float64 // lower bound on OPT estimated in phase 1
}

// IMM runs the two-phase IMM algorithm (Tang et al., SIGMOD 2015) over the
// influence graph defined by probs, restricting seeds to candidates.
//
// Phase 1 (sampling) estimates a lower bound LB on the optimal spread via
// a geometric search with martingale concentration bounds; phase 2 draws
// θ = λ*/LB RR sets and greedily covers them. The statistical guarantee
// (1−1/e−ε with probability 1−n^−ℓ) is inherited from the paper; the
// candidate restriction replaces log C(n,k) with log C(|candidates|,k) in
// λ, which preserves the union bound over the restricted seed space.
func IMM(g *graph.Graph, probs []float64, candidates []int32, k int, opts IMMOptions) (*IMMResult, error) {
	if opts.Epsilon <= 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("im: epsilon %v outside (0,1)", opts.Epsilon)
	}
	if opts.Ell <= 0 {
		return nil, fmt.Errorf("im: ell %v must be positive", opts.Ell)
	}
	if k <= 0 {
		return nil, fmt.Errorf("im: non-positive budget %d", k)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("im: empty candidate set")
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	n := float64(g.N())
	if n < 2 {
		return nil, fmt.Errorf("im: graph too small")
	}
	logN := math.Log(n)
	logNK := logChoose(len(candidates), k)

	// Rescale ell so the overall failure probability stays n^−ell after
	// the union bound over phase 1 and phase 2 (IMM paper, §4.3).
	ell := opts.Ell * (1 + math.Log(2)/logN)

	epsPrime := math.Sqrt2 * opts.Epsilon
	lambdaPrime := (2 + 2*epsPrime/3) * (logNK + ell*logN + math.Log(math.Log2(n))) * n / (epsPrime * epsPrime)

	alpha := math.Sqrt(ell*logN + math.Log(2))
	beta := math.Sqrt((1 - 1/math.E) * (logNK + ell*logN + math.Log(2)))
	lambdaStar := 2 * n * sq((1-1/math.E)*alpha+beta) / (opts.Epsilon * opts.Epsilon)

	lay, err := g.Layout(probs)
	if err != nil {
		return nil, fmt.Errorf("im: %w", err)
	}
	col := rrset.NewCollectionLayout(lay, opts.Seed)

	lb := 1.0
	maxIter := int(math.Ceil(math.Log2(n))) - 1
	if maxIter < 1 {
		maxIter = 1
	}
	for i := 1; i <= maxIter; i++ {
		x := n / math.Pow(2, float64(i))
		thetaI := int(math.Ceil(lambdaPrime / x))
		if opts.MaxTheta > 0 && thetaI > opts.MaxTheta {
			thetaI = opts.MaxTheta
		}
		col.ExtendTo(thetaI)
		res, err := GreedyCover(col.View(), candidates, k)
		if err != nil {
			return nil, err
		}
		if res.Spread >= (1+epsPrime)*x {
			lb = res.Spread / (1 + epsPrime)
			break
		}
		if opts.MaxTheta > 0 && thetaI >= opts.MaxTheta {
			break
		}
	}

	theta := int(math.Ceil(lambdaStar / lb))
	if opts.MaxTheta > 0 && theta > opts.MaxTheta {
		theta = opts.MaxTheta
	}
	if theta < 1 {
		theta = 1
	}
	col.ExtendTo(theta)
	// Phase 1 may have oversampled past θ = λ*/LB; select over exactly θ
	// samples via a prefix view (set i is schedule-independent, so this
	// matches a collection sampled to θ directly) instead of silently
	// granting phase 2 the surplus.
	v := col.View()
	if theta < v.Theta() {
		if v, err = v.Prefix(theta); err != nil {
			return nil, err
		}
	}
	res, err := GreedyCover(v, candidates, k)
	if err != nil {
		return nil, err
	}
	return &IMMResult{CoverResult: *res, Theta: v.Theta(), LB: lb}, nil
}

// logChoose returns ln C(n, k).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	s := 0.0
	for i := 1; i <= k; i++ {
		s += math.Log(float64(n-k+i)) - math.Log(float64(i))
	}
	return s
}

func sq(x float64) float64 { return x * x }
