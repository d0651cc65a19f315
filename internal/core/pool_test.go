package core

import (
	"context"
	"sync"
	"testing"
)

// TestEvaluatorPoolMatchesUnpooled pins pooled solves to the plain
// entry points: same instance, same options, identical results — run
// twice so the second pass exercises a recycled evaluator.
func TestEvaluatorPoolMatchesUnpooled(t *testing.T) {
	prob := randomProblem(t, 3, 40, 200, 10, 2, 3)
	inst, err := Prepare(context.Background(), prob, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvaluatorPool(inst)
	want, err := SolveBABP(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := pool.SolveBABP(inst, DefaultBABOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got.Utility != want.Utility || got.Upper != want.Upper {
			t.Fatalf("round %d: pooled BAB-P (%v, %v) != unpooled (%v, %v)",
				round, got.Utility, got.Upper, want.Utility, want.Upper)
		}
		if got.Stats.TauEvals != want.Stats.TauEvals {
			t.Fatalf("round %d: pooled tau evals %d != unpooled %d (stale counter?)",
				round, got.Stats.TauEvals, want.Stats.TauEvals)
		}
	}
	wantBAB, err := SolveBAB(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotBAB, err := pool.SolveBAB(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gotBAB.Utility != wantBAB.Utility {
		t.Fatalf("pooled BAB %v != unpooled %v", gotBAB.Utility, wantBAB.Utility)
	}
	wantG, err := SolveGreedy(inst, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := pool.SolveGreedy(inst, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gotG.Utility != wantG.Utility {
		t.Fatalf("pooled greedy %v != unpooled %v", gotG.Utility, wantG.Utility)
	}
}

// TestEvaluatorPoolConcurrent runs many pooled solves in parallel on one
// shared instance (the serve workload); under -race this checks that
// checked-out evaluators never share state.
func TestEvaluatorPoolConcurrent(t *testing.T) {
	prob := randomProblem(t, 5, 40, 200, 10, 2, 3)
	inst, err := Prepare(context.Background(), prob, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvaluatorPool(inst)
	want, err := SolveBABP(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := pool.SolveBABP(inst, DefaultBABOptions())
			if err != nil {
				errs <- err
				return
			}
			if got.Utility != want.Utility {
				t.Errorf("concurrent pooled solve: %v != %v", got.Utility, want.Utility)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEvaluatorPoolDerivedInstances checks what one pool refuses: an
// instance above its θ capacity until EnsureTheta raises it, and another
// candidate shape outright. That pooled solves of the WithK, WithModel,
// θ-prefix and grown instances it serves equal unpooled ones is checked
// by the serve lifecycle conformance model.
func TestEvaluatorPoolDerivedInstances(t *testing.T) {
	prob := randomProblem(t, 7, 30, 150, 8, 2, 2)
	inst, err := Prepare(context.Background(), prob, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvaluatorPool(inst)
	larger, err := Prepare(context.Background(), prob, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.SolveBABP(larger, DefaultBABOptions()); err == nil {
		t.Fatal("pool accepted an instance above its theta capacity")
	}
	pool.EnsureTheta(300)
	if _, err := pool.SolveBABP(larger, DefaultBABOptions()); err != nil {
		t.Fatalf("pool refused an instance within its raised capacity: %v", err)
	}
	otherShape := randomProblem(t, 8, 30, 150, 9, 2, 2) // 9-promoter pool
	badInst, err := Prepare(context.Background(), otherShape, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.SolveBABP(badInst, DefaultBABOptions()); err == nil {
		t.Fatal("pool accepted an instance with a different pool size")
	}
}

// TestStopReturnsIncumbent checks the cancellation hook: a search whose
// Stop channel is already closed returns the root incumbent without
// expanding any nodes, and its (utility, upper) pair stays valid.
func TestStopReturnsIncumbent(t *testing.T) {
	prob := randomProblem(t, 11, 40, 200, 10, 2, 4)
	inst, err := Prepare(context.Background(), prob, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	opts := DefaultBABOptions()
	opts.Tolerance = 0 // would search exhaustively if not stopped
	opts.Stop = stop
	res, err := SolveBAB(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes != 0 {
		t.Fatalf("stopped search expanded %d nodes, want 0", res.Stats.Nodes)
	}
	// Upper (the bound's sum) and Utility (the index estimate) come from
	// different summation orders; tolerate their last-ulp disagreement.
	if res.Utility <= 0 || res.Upper < res.Utility*(1-1e-12) {
		t.Fatalf("stopped search returned invalid pair (U=%v, L=%v)", res.Upper, res.Utility)
	}
	// The incumbent of an immediately-stopped search is the root greedy.
	greedy, err := SolveGreedy(inst, BABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility != greedy.Utility {
		t.Fatalf("stopped incumbent %v != root greedy %v", res.Utility, greedy.Utility)
	}
}
