package core

import (
	"context"
	"testing"
)

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
