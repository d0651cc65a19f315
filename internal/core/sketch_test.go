package core

import (
	"context"
	"math"
	"testing"
)

// TestBABSketchVerifiedIncumbent pins the sketch/exact split in the BAB
// search: with Sketch enabled, interior candidate evaluations go through
// the bottom-k sketch (SketchEvals counts them), but the published
// Utility is always the exact scan's value for the returned plan — the
// incumbent is re-verified exactly before adoption, so sketch error can
// cost search efficiency but never correctness of the reported pair.
func TestBABSketchVerifiedIncumbent(t *testing.T) {
	// This (problem, θ) pair is one where the greedy root is NOT
	// immediately certified — the zero-tolerance search expands several
	// nodes, so interior candidates actually go through the sketch.
	p := randomProblem(t, 23, 60, 250, 10, 3, 6)
	inst, err := Prepare(context.Background(), p, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SolveBAB(inst, BABOptions{Tolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.SketchEvals != 0 {
		t.Fatalf("exact solve counted %d sketch evals", exact.Stats.SketchEvals)
	}
	if err := inst.Index.AttachSketches(64); err != nil {
		t.Fatal(err)
	}
	opts := BABOptions{Tolerance: 0, Sketch: true}
	res, err := SolveBAB(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SketchEvals == 0 {
		t.Fatal("sketch solve counted no sketch evals")
	}
	// The published Utility must be the exact estimate of the returned
	// plan — not a sketch number.
	got, err := inst.EstimateAU(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility != got {
		t.Fatalf("published utility %v != exact estimate %v of returned plan", res.Utility, got)
	}
	if res.Upper < res.Utility {
		t.Fatalf("upper %v below utility %v", res.Upper, res.Utility)
	}
	// Sketch steering should land on (essentially) the same solution
	// quality as the exact search at this scale.
	if math.Abs(res.Utility-exact.Utility) > 0.05*math.Max(1, exact.Utility) {
		t.Fatalf("sketch utility %v far from exact %v", res.Utility, exact.Utility)
	}
}

// TestBABSketchOptionIgnoredWithoutSketches pins that Sketch: true on an
// index with no sketches attached — and Sketch: false on one with them —
// both produce results bit-identical to the plain solve.
func TestBABSketchOptionIgnoredWithoutSketches(t *testing.T) {
	p := randomProblem(t, 5, 50, 200, 6, 2, 3)
	mk := func() *Instance {
		inst, err := Prepare(context.Background(), p, 2000, 13)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	plain, err := SolveBAB(mk(), DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, res *Result) {
		t.Helper()
		if res.Utility != plain.Utility || res.Upper != plain.Upper {
			t.Fatalf("%s: (utility, upper) = (%v, %v), want (%v, %v)",
				name, res.Utility, res.Upper, plain.Utility, plain.Upper)
		}
		if res.Stats.Nodes != plain.Stats.Nodes || res.Stats.SketchEvals != 0 {
			t.Fatalf("%s: stats %+v diverge from plain %+v", name, res.Stats, plain.Stats)
		}
		for j := range plain.Plan.Seeds {
			if len(res.Plan.Seeds[j]) != len(plain.Plan.Seeds[j]) {
				t.Fatalf("%s: plan diverges from plain", name)
			}
			for i, s := range plain.Plan.Seeds[j] {
				if res.Plan.Seeds[j][i] != s {
					t.Fatalf("%s: plan diverges from plain", name)
				}
			}
		}
	}

	// Sketch requested but none attached: silently exact.
	opts := DefaultBABOptions()
	opts.Sketch = true
	res, err := SolveBAB(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	check("sketch-without-sketches", res)

	// Sketches attached but not requested: path untouched.
	inst := mk()
	if err := inst.Index.AttachSketches(32); err != nil {
		t.Fatal(err)
	}
	res, err = SolveBAB(inst, DefaultBABOptions())
	if err != nil {
		t.Fatal(err)
	}
	check("sketches-without-option", res)
}

// TestBABPSketchVerifiedIncumbent runs the same exact-verification pin
// through the progressive bound path.
func TestBABPSketchVerifiedIncumbent(t *testing.T) {
	p := randomProblem(t, 23, 60, 250, 10, 3, 6)
	inst, err := Prepare(context.Background(), p, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Index.AttachSketches(64); err != nil {
		t.Fatal(err)
	}
	opts := DefaultBABPOptions()
	opts.Tolerance = 0
	opts.RawGap = false
	opts.Sketch = true
	res, err := SolveBABP(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.EstimateAU(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility != got {
		t.Fatalf("published utility %v != exact estimate %v of returned plan", res.Utility, got)
	}
	if res.Stats.SketchEvals == 0 {
		t.Fatal("sketch solve counted no sketch evals")
	}
}

// TestInstanceLifecycleKeepsSketches pins that the two index-rebuild
// paths — ShrinkTo's compaction and ExtendTo's prefix-instance fallback
// — re-attach sketches at the receiver's k, so estimate-mode capability
// survives the registry's decay/growth lifecycle.
func TestInstanceLifecycleKeepsSketches(t *testing.T) {
	p := randomProblem(t, 9, 40, 160, 5, 2, 3)
	inst, err := Prepare(context.Background(), p, 2000, 19)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Index.AttachSketches(32); err != nil {
		t.Fatal(err)
	}

	small, err := inst.ShrinkTo(800)
	if err != nil {
		t.Fatal(err)
	}
	if k := small.Index.SketchK(); k != 32 {
		t.Fatalf("ShrinkTo: SketchK = %d, want 32", k)
	}
	if _, err := small.Index.EstimateAUSketch(paddedPlan(p), p.Model); err != nil {
		t.Fatalf("ShrinkTo sketch estimate: %v", err)
	}

	// A θ-prefix instance's index cannot ExtendFrom (shared storage) and
	// falls back to a rebuild, which must restore the sketches too.
	pre, err := inst.Prefix(500)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Index.HasSketches() {
		t.Fatal("prefix dropped sketches")
	}
	grown, err := pre.ExtendTo(context.Background(), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if k := grown.Index.SketchK(); k != 32 {
		t.Fatalf("ExtendTo fallback: SketchK = %d, want 32", k)
	}
	if _, err := grown.Index.EstimateAUSketch(paddedPlan(p), p.Model); err != nil {
		t.Fatalf("ExtendTo fallback sketch estimate: %v", err)
	}
}

// paddedPlan builds a trivial valid plan (first pool member for every
// piece) for smoke-estimating against a problem's indexes.
func paddedPlan(p *Problem) [][]int32 {
	plan := make([][]int32, p.Campaign.L())
	for j := range plan {
		plan[j] = []int32{p.Pool[0]}
	}
	return plan
}
