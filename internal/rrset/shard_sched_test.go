package rrset

// Schedule-invariance and growth tests for the sharded path, mirroring
// geoskip_test.go's work-stealing tests: shard count and growth schedule
// must never leak into results or previously taken views.

import (
	"runtime"
	"slices"
	"testing"
)

// TestShardedSetsScheduleInvariance samples the same MRR collection at
// several shard counts (including ones that do not divide the block
// count) and requires identical roots and sets in read-side order: the
// block directory must erase the physical shard layout.
func TestShardedSetsScheduleInvariance(t *testing.T) {
	g, probs := wcGraph(t, 29, 400, 4800)
	const theta = 450 // 7 full blocks of 64 plus a 2-sample tail
	sample := func(workers int) *MRRCollection {
		var m *MRRCollection
		atGOMAXPROCS(workers, func() {
			var err error
			if m, err = SampleMRR(g, probs, theta, 41); err != nil {
				t.Fatal(err)
			}
		})
		if workers > 1 && m.Shards() < 2 {
			t.Fatalf("workers=%d produced %d shards", workers, m.Shards())
		}
		return m
	}
	ref := sample(1)
	for _, workers := range []int{2, 3, 5, runtime.NumCPU()} {
		m := sample(workers)
		for i := 0; i < theta; i++ {
			if m.Root(i) != ref.Root(i) {
				t.Fatalf("workers=%d: root %d differs from serial run", workers, i)
			}
			for j := 0; j < m.L(); j++ {
				if !slices.Equal(m.Set(i, j), ref.Set(i, j)) {
					t.Fatalf("workers=%d: set (%d, %d) differs from serial run", workers, i, j)
				}
			}
		}
	}
}

// TestShardedExtendToMonotonic grows a collection in irregular steps,
// each at a different parallelism, and requires the result to be
// bit-identical to a one-shot sample — and every view taken along the
// way to keep exposing exactly the prefix it snapshotted, untouched by
// later growth.
func TestShardedExtendToMonotonic(t *testing.T) {
	g, probs := wcGraph(t, 31, 500, 6000)
	lay, err := g.Layout(probs[0])
	if err != nil {
		t.Fatal(err)
	}
	const theta = 1000
	oneShot := newCollection1(lay, 77)
	extend(t, oneShot, theta)

	grown := newCollection1(lay, 77)
	steps := []struct{ theta, workers int }{
		{1, 1}, {37, 2}, {100, 3}, {421, 1}, {1000, 5},
	}
	type snap struct {
		view  *MRRView
		theta int
		sets  [][]int32 // deep copies at snapshot time
	}
	var snaps []snap
	for _, st := range steps {
		atGOMAXPROCS(st.workers, func() { extend(t, grown, st.theta) })
		v := grown.View()
		s := snap{view: v, theta: st.theta}
		for i := 0; i < st.theta; i++ {
			s.sets = append(s.sets, append([]int32(nil), v.Set(i, 0)...))
		}
		snaps = append(snaps, s)
	}
	if grown.Theta() != theta || grown.TotalSize() != oneShot.TotalSize() {
		t.Fatalf("grown shape (θ=%d, size=%d) != one-shot (θ=%d, size=%d)",
			grown.Theta(), grown.TotalSize(), theta, oneShot.TotalSize())
	}
	for i := 0; i < theta; i++ {
		if grown.Root(i) != oneShot.Root(i) || !slices.Equal(grown.Set(i, 0), oneShot.Set(i, 0)) {
			t.Fatalf("set %d differs between stepped and one-shot growth", i)
		}
	}
	for si, s := range snaps {
		if s.view.Theta() != s.theta {
			t.Fatalf("snapshot %d: theta drifted from %d to %d", si, s.theta, s.view.Theta())
		}
		for i := 0; i < s.theta; i++ {
			if !slices.Equal(s.view.Set(i, 0), s.sets[i]) {
				t.Fatalf("snapshot %d: set %d changed after later growth", si, i)
			}
		}
	}
}

// TestExtendToSmallerThetaNoOp pins the documented contract: ExtendTo
// with theta ≤ Theta() leaves the collection untouched — same theta,
// same sets, no resampling.
func TestExtendToSmallerThetaNoOp(t *testing.T) {
	g, probs := randomTestGraph(t, 33, 40, 160)
	lay, err := g.Layout(probs[0])
	if err != nil {
		t.Fatal(err)
	}
	c := newCollection1(lay, 3)
	extend(t, c, 120)
	before := c.View()
	for _, smaller := range []int{119, 120, 64, 1, 0, -5} {
		if err := c.ExtendTo(smaller); err != nil {
			t.Fatalf("ExtendTo(%d) errored: %v", smaller, err)
		}
		if c.Theta() != 120 {
			t.Fatalf("ExtendTo(%d) changed theta to %d", smaller, c.Theta())
		}
	}
	for i := 0; i < 120; i++ {
		if !slices.Equal(c.Set(i, 0), before.Set(i, 0)) {
			t.Fatalf("ExtendTo no-op changed set %d", i)
		}
	}

	m, err := SampleMRR(g, probs, 90, 7)
	if err != nil {
		t.Fatal(err)
	}
	size := m.TotalSize()
	for _, smaller := range []int{89, 90, 10, 0, -1} {
		if err := m.ExtendTo(smaller); err != nil {
			t.Fatalf("MRR ExtendTo(%d) errored: %v", smaller, err)
		}
		if m.Theta() != 90 || m.TotalSize() != size {
			t.Fatalf("MRR ExtendTo(%d) changed the collection", smaller)
		}
	}
}

// TestPinnedRootsMRRExtendToRejected: collections built from
// caller-provided roots must refuse to grow — appending (seed, i)-derived
// roots would silently mix two root distributions.
func TestPinnedRootsMRRExtendToRejected(t *testing.T) {
	g, probs := randomTestGraph(t, 37, 30, 120)
	m, err := SampleMRRWithRoots(g, probs, []int32{2, 0, 7, 2, 11}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExtendTo(3); err != nil {
		t.Fatalf("no-op ExtendTo on pinned-roots collection errored: %v", err)
	}
	if err := m.ExtendTo(10); err == nil {
		t.Fatal("growing a pinned-roots collection silently succeeded")
	}
	if m.Theta() != 5 {
		t.Fatalf("failed ExtendTo changed theta to %d", m.Theta())
	}
}

// TestIndexViewFrozenAfterGrowth: an Index snapshots the collection at
// build time; growing the collection afterwards must not change what the
// index (or its MRR view) reports.
func TestIndexViewFrozenAfterGrowth(t *testing.T) {
	g, probs := randomTestGraph(t, 36, 40, 170)
	m, err := SampleMRR(g, probs, 100, 21)
	if err != nil {
		t.Fatal(err)
	}
	pool := []int32{0, 3, 7, 11, 19}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	plan := [][]int32{{0, 7}, {19}}
	before, err := ix.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExtendTo(400); err != nil {
		t.Fatal(err)
	}
	if ix.MRR().Theta() != 100 {
		t.Fatalf("index view theta drifted to %d", ix.MRR().Theta())
	}
	after, err := ix.EstimateAU(plan, paperModel)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("index estimate changed after growth: %v vs %v", before, after)
	}
}
