package core

import (
	"context"
	"testing"
)

// solversAgree asserts two instances produce bit-identical results for
// every pooled solver and the index estimate of the winning plan.
func solversAgree(t *testing.T, label string, a, b *Instance) {
	t.Helper()
	ra, err := SolveBABP(a, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := SolveBABP(b, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Utility != rb.Utility || ra.Upper != rb.Upper {
		t.Fatalf("%s: BAB-P (%v, %v) != (%v, %v)", label, ra.Utility, ra.Upper, rb.Utility, rb.Upper)
	}
	if ra.Stats.TauEvals != rb.Stats.TauEvals || ra.Stats.Nodes != rb.Stats.Nodes {
		t.Fatalf("%s: BAB-P search trajectories diverged: %+v vs %+v", label, ra.Stats, rb.Stats)
	}
	ga, err := SolveGreedy(a, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := SolveGreedy(b, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ga.Utility != gb.Utility {
		t.Fatalf("%s: greedy %v != %v", label, ga.Utility, gb.Utility)
	}
	ua, err := a.EstimateAU(ra.Plan)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := b.EstimateAU(rb.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if ua != ub {
		t.Fatalf("%s: estimates %v != %v", label, ua, ub)
	}
	ta, err := SolveTIM(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := SolveTIM(b)
	if err != nil {
		t.Fatal(err)
	}
	if ta.Utility != tb.Utility {
		t.Fatalf("%s: TIM %v != %v", label, ta.Utility, tb.Utility)
	}
}

// TestInstanceExtendMatchesFreshPrepare pins the θ-monotone growth
// contract: growing a prepared instance to θ solves bit-identically to
// preparing at θ directly, and the pre-growth instance stays frozen.
func TestInstanceExtendMatchesFreshPrepare(t *testing.T) {
	prob := randomProblem(t, 19, 50, 300, 12, 2, 3)
	small, err := Prepare(context.Background(), prob, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	smallBefore, err := SolveBABP(small, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := small.ExtendTo(context.Background(), 900)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Theta() != 900 {
		t.Fatalf("grown theta %d, want 900", grown.Theta())
	}
	fresh, err := Prepare(context.Background(), prob, 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	solversAgree(t, "extend-vs-fresh", grown, fresh)

	// The small instance still reads its frozen 300-sample view.
	if small.Theta() != 300 {
		t.Fatalf("pre-growth instance theta drifted to %d", small.Theta())
	}
	smallAfter, err := SolveBABP(small, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if smallAfter.Utility != smallBefore.Utility || smallAfter.Upper != smallBefore.Upper {
		t.Fatalf("growth changed the pre-growth instance: (%v, %v) vs (%v, %v)",
			smallAfter.Utility, smallAfter.Upper, smallBefore.Utility, smallBefore.Upper)
	}

	// No-op growth returns the receiver.
	same, err := grown.ExtendTo(context.Background(), 600)
	if err != nil {
		t.Fatal(err)
	}
	if same != grown {
		t.Fatal("shrinking ExtendTo did not return the receiver")
	}
}

// TestInstancePrefixMatchesFreshPrepare pins the θ-prefix contract at
// the instance level: a Prefix of a large instance solves bit-identically
// to a fresh small preparation.
func TestInstancePrefixMatchesFreshPrepare(t *testing.T) {
	prob := randomProblem(t, 21, 50, 300, 12, 2, 3)
	big, err := Prepare(context.Background(), prob, 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := big.Prefix(300)
	if err != nil {
		t.Fatal(err)
	}
	if prefix.Theta() != 300 {
		t.Fatalf("prefix theta %d, want 300", prefix.Theta())
	}
	fresh, err := Prepare(context.Background(), prob, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	solversAgree(t, "prefix-vs-fresh", prefix, fresh)
	if _, err := big.Prefix(0); err == nil {
		t.Fatal("Prefix(0) accepted")
	}
	if _, err := big.Prefix(1201); err == nil {
		t.Fatal("Prefix beyond theta accepted")
	}
}

// TestEvaluatorPoolAcrossGrowthAndPrefix drives one pool through the
// registry's whole lifecycle: solve at the prepared θ, at a prefix θ,
// then grow, EnsureTheta, and solve at the grown θ — each bit-identical
// to its unpooled counterpart.
func TestEvaluatorPoolAcrossGrowthAndPrefix(t *testing.T) {
	prob := randomProblem(t, 23, 40, 250, 10, 2, 3)
	inst, err := Prepare(context.Background(), prob, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvaluatorPool(inst)

	prefix, err := inst.Prefix(100)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := SolveBABP(prefix, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := pool.SolveBABP(prefix, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gotP.Utility != wantP.Utility {
		t.Fatalf("pooled prefix solve %v != %v", gotP.Utility, wantP.Utility)
	}

	grown, err := inst.ExtendTo(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Compatible(grown) {
		t.Fatal("pool claimed to fit a grown instance before EnsureTheta")
	}
	pool.EnsureTheta(grown.Theta())
	if !pool.Compatible(grown) {
		t.Fatal("pool incompatible with grown instance after EnsureTheta")
	}
	wantG, err := SolveBABP(grown, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds so the second checkout recycles a grown evaluator.
	for round := 0; round < 2; round++ {
		gotG, err := pool.SolveBABP(grown, DefaultBABPOptions())
		if err != nil {
			t.Fatal(err)
		}
		if gotG.Utility != wantG.Utility || gotG.Upper != wantG.Upper {
			t.Fatalf("round %d: pooled grown solve (%v, %v) != (%v, %v)",
				round, gotG.Utility, gotG.Upper, wantG.Utility, wantG.Upper)
		}
	}
	// Small instances still solve through the same (grown) pool.
	gotS, err := pool.SolveBABP(prefix, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gotS.Utility != wantP.Utility {
		t.Fatalf("pooled prefix solve after growth %v != %v", gotS.Utility, wantP.Utility)
	}
}
