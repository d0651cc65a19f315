package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"oipa/internal/faultpoint"
	"oipa/internal/logistic"
)

// branchyInstance prepares a random instance under a steep logistic model
// (the default α=2 tangent bound is tight enough to certify most random
// instances at the root — useless for exercising the search). The steeper
// sigmoid opens a real bound gap, so Tolerance=0 expands a proper tree.
func branchyInstance(t *testing.T, seed uint64, n, m, pool, l, k, theta int, instSeed uint64, alpha, beta float64) *Instance {
	t.Helper()
	p := randomProblem(t, seed, n, m, pool, l, k)
	p.Model = logistic.Model{Alpha: alpha, Beta: beta}
	inst, err := Prepare(context.Background(), p, theta, instSeed)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// requireSameResult pins the parallel determinism contract: plan, utility
// and upper bound bit-identical between two solver runs.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Utility != want.Utility {
		t.Fatalf("%s: utility %v, sequential %v", label, got.Utility, want.Utility)
	}
	if got.Upper != want.Upper {
		t.Fatalf("%s: upper %v, sequential %v", label, got.Upper, want.Upper)
	}
	if len(got.Plan.Seeds) != len(want.Plan.Seeds) {
		t.Fatalf("%s: plan piece count %d, sequential %d", label, len(got.Plan.Seeds), len(want.Plan.Seeds))
	}
	for j := range want.Plan.Seeds {
		if len(got.Plan.Seeds[j]) != len(want.Plan.Seeds[j]) {
			t.Fatalf("%s: piece %d seed count %d, sequential %d", label, j, len(got.Plan.Seeds[j]), len(want.Plan.Seeds[j]))
		}
		for i := range want.Plan.Seeds[j] {
			if got.Plan.Seeds[j][i] != want.Plan.Seeds[j][i] {
				t.Fatalf("%s: piece %d seed %d is %d, sequential %d", label, j, i, got.Plan.Seeds[j][i], want.Plan.Seeds[j][i])
			}
		}
	}
}

func TestParallelScheduleInvariance(t *testing.T) {
	inst := branchyInstance(t, 19, 40, 160, 6, 2, 3, 800, 8, 6, 2)
	if err := inst.Index.AttachSketches(64); err != nil {
		t.Fatal(err)
	}
	if probe, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true}); err != nil || probe.Stats.Nodes == 0 {
		t.Fatalf("golden instance must expand nodes (got %d, err %v)", probe.Stats.Nodes, err)
	}
	workerCounts := []int{2, runtime.NumCPU(), runtime.NumCPU() + 3}
	for _, tol := range []float64{0, 0.01} {
		for _, sketch := range []bool{false, true} {
			for _, progressive := range []bool{false, true} {
				opts := BABOptions{Tolerance: tol, RawGap: true, Sketch: sketch}
				solve := SolveBAB
				name := "bab"
				if progressive {
					opts.Epsilon = 0.5
					opts.FillAfterFloor = true
					solve = SolveBABP
					name = "babp"
				}
				seqRes, err := solve(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts {
					if w < 2 {
						continue // NumCPU can be 1; Workers<=1 is the sequential path itself
					}
					popts := opts
					popts.Workers = w
					parRes, err := solve(inst, popts)
					if err != nil {
						t.Fatal(err)
					}
					label := name
					if sketch {
						label += "+sketch"
					}
					requireSameResult(t, label, seqRes, parRes)
					if parRes.Stats.Workers != w {
						t.Fatalf("%s workers=%d: stats report %d workers", label, w, parRes.Stats.Workers)
					}
				}
			}
		}
	}
}

func TestParallelPooledMultiCheckout(t *testing.T) {
	inst := branchyInstance(t, 31, 50, 200, 8, 2, 4, 600, 5, 6, 2.5)
	pool := NewEvaluatorPool(inst)
	seqRes, err := pool.SolveBABP(inst, DefaultBABPOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBABPOptions()
	opts.Workers = 4
	// Two pooled parallel solves back to back: the second recycles the
	// evaluators the first checked out, so stale scratch would show up as
	// a result divergence here.
	for round := 0; round < 2; round++ {
		parRes, err := pool.SolveBABP(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "pooled babp", seqRes, parRes)
	}
	seqBAB, err := pool.SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true})
	if err != nil {
		t.Fatal(err)
	}
	parBAB, err := pool.SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "pooled bab", seqBAB, parBAB)
}

func TestParallelMaxNodesAndStop(t *testing.T) {
	inst := branchyInstance(t, 23, 60, 250, 10, 3, 6, 1000, 9, 5, 2)
	seqRes, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, MaxNodes: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Stats.Nodes > 3 {
		t.Fatalf("parallel search expanded %d nodes with cap 3", parRes.Stats.Nodes)
	}
	requireSameResult(t, "maxnodes", seqRes, parRes)

	// A pre-closed Stop channel: both paths must return the root
	// incumbent with the residual (root) upper bound.
	stop := make(chan struct{})
	close(stop)
	seqStop, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	parStop, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, Stop: stop, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if parStop.Plan.Size() == 0 {
		t.Fatal("stopped parallel search returned empty plan")
	}
	requireSameResult(t, "stop", seqStop, parStop)
}

func TestParallelWorkerPanicContainment(t *testing.T) {
	defer faultpoint.Reset()
	inst := branchyInstance(t, 19, 40, 160, 6, 2, 3, 800, 8, 6, 2)
	if err := faultpoint.Arm("core.search.worker", "panic#1"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected worker panic did not propagate to the solve goroutine")
			}
			if ip, ok := r.(faultpoint.InjectedPanic); !ok || ip.Name != "core.search.worker" {
				t.Fatalf("unexpected panic value %v", r)
			}
		}()
		SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, Workers: 4})
	}()
	// The one-shot point has disarmed: the very next solve — parallel and
	// sequential — must succeed and agree.
	seqRes, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "post-panic", seqRes, parRes)
}

func TestParallelWorkerErrorInjection(t *testing.T) {
	defer faultpoint.Reset()
	inst := branchyInstance(t, 19, 40, 160, 6, 2, 3, 800, 8, 6, 2)
	if err := faultpoint.Arm("core.search.worker", "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, Workers: 4}); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	faultpoint.Reset()
	if _, err := SolveBAB(inst, BABOptions{Tolerance: 0, RawGap: true, Workers: 4}); err != nil {
		t.Fatalf("solve after disarm failed: %v", err)
	}
}
