package core

import "fmt"

// solveBrute finds the exact optimum of the MRR-estimated adoption
// utility by enumerating every assignment plan with |S̄| ≤ k over the
// candidate space (pool × pieces). Cost is C(ℓ·|pool|, k) utility
// evaluations, so it is an oracle for tiny instances only; it refuses to
// run when the enumeration would exceed maxBrutePlans.
func solveBrute(inst *Instance) (*Result, error) {
	const maxBrutePlans = 5_000_000
	l := inst.L()
	pp := inst.Index.PoolSize()
	numCands := l * pp
	k := min(inst.Problem.K, numCands)
	if c := choose(numCands, k); c < 0 || c > maxBrutePlans {
		return nil, fmt.Errorf("core: brute force would enumerate too many plans (C(%d,%d))", numCands, k)
	}

	pool := inst.Index.Pool()
	bestUtil := 0.0
	bestPlan := NewPlan(l)
	chosen := make([]candidate, 0, k)
	plan := NewPlan(l)

	var rec func(start int) error
	rec = func(s int) error {
		// Monotonicity makes only full-size plans candidates for the
		// optimum; evaluate when the plan is full or the candidate space
		// is exhausted.
		if len(chosen) == k || s == numCands {
			for j := range plan.Seeds {
				plan.Seeds[j] = plan.Seeds[j][:0]
			}
			for _, c := range chosen {
				j := int(c) / pp
				plan.Seeds[j] = append(plan.Seeds[j], pool[int(c)%pp])
			}
			util, err := inst.EstimateAU(plan)
			if err != nil {
				return err
			}
			if util > bestUtil {
				bestUtil = util
				for j, seeds := range plan.Seeds {
					bestPlan.Seeds[j] = append([]int32(nil), seeds...)
				}
			}
			return nil
		}
		for c := s; c < numCands; c++ {
			chosen = append(chosen, candidate(c))
			if err := rec(c + 1); err != nil {
				return err
			}
			chosen = chosen[:len(chosen)-1]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return &Result{Method: "BRUTE", Plan: bestPlan, Utility: bestUtil}, nil
}

// choose returns C(n, k), or -1 on overflow.
func choose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 1; i <= k; i++ {
		if c > (1<<62)/(n-k+i) {
			return -1
		}
		c = c * (n - k + i) / i
	}
	return c
}
