package core

import (
	"context"
	"testing"
)

func TestLazyBoundMatchesPlainGreedy(t *testing.T) {
	// CELF lazy evaluation must reproduce the plain greedy's selections,
	// bound values and final utilities exactly — it only changes the
	// number of τ evaluations.
	for seed := uint64(1); seed <= 6; seed++ {
		p := randomProblem(t, seed, 50, 200, 10, 3, 5)
		inst, err := Prepare(context.Background(), p, 800, seed)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := SolveBAB(inst, BABOptions{Tolerance: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := SolveBAB(inst, BABOptions{Tolerance: 0.01, Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Utility != lazy.Utility {
			t.Fatalf("seed %d: lazy utility %v != plain %v", seed, lazy.Utility, plain.Utility)
		}
		if plain.Upper != lazy.Upper {
			t.Fatalf("seed %d: lazy upper %v != plain %v", seed, lazy.Upper, plain.Upper)
		}
		for j := range plain.Plan.Seeds {
			if len(plain.Plan.Seeds[j]) != len(lazy.Plan.Seeds[j]) {
				t.Fatalf("seed %d: plans differ in piece %d", seed, j)
			}
			for i := range plain.Plan.Seeds[j] {
				if plain.Plan.Seeds[j][i] != lazy.Plan.Seeds[j][i] {
					t.Fatalf("seed %d: plans differ at piece %d pos %d", seed, j, i)
				}
			}
		}
		if lazy.Stats.TauEvals >= plain.Stats.TauEvals {
			t.Fatalf("seed %d: lazy τ evals (%d) not below plain (%d)",
				seed, lazy.Stats.TauEvals, plain.Stats.TauEvals)
		}
	}
}

func TestLazyGreedySolver(t *testing.T) {
	p := randomProblem(t, 7, 40, 160, 8, 2, 4)
	inst, err := Prepare(context.Background(), p, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SolveGreedy(inst, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := SolveGreedy(inst, BABOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Utility != lazy.Utility {
		t.Fatalf("lazy greedy %v != plain greedy %v", lazy.Utility, plain.Utility)
	}
}
