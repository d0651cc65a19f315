package rrset

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// checkTranspose verifies the transpose against the lists: for every
// sample below ix's θ, the slots listed are exactly, ascending, those
// whose list (cut at θ on a prefix) holds it.
func checkTranspose(t *testing.T, label string, ix *Index) {
	t.Helper()
	tr := ix.Transpose()
	theta, pp := ix.MRR().Theta(), ix.PoolSize()
	want := make([][]int32, theta)
	for slot := range ix.lists {
		for _, i := range ix.Samples(slot/pp, int32(slot%pp)) {
			want[i] = append(want[i], int32(slot))
		}
	}
	for i := 0; i < theta; i++ {
		if got := tr.Slots(int32(i)); !slices.Equal(got, want[i]) {
			t.Fatalf("%s: sample %d lists slots %v, want %v", label, i, got, want[i])
		}
	}
}

// TestTransposeLifecycle follows one index lineage: the transpose is
// built once however many goroutines ask for it first — through the
// index or a prefix of it — the prefix reads it correctly, MemUsage
// leaves it out, and ExtendFrom starts a fresh one while the receiver's
// stays valid.
func TestTransposeLifecycle(t *testing.T) {
	g, probs := randomTestGraph(t, 41, 80, 400)
	m, err := SampleMRR(g, probs, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := []int32{0, 3, 7, 11, 19, 23, 42, 57, 64, 79}
	ix, err := m.BuildIndex(pool)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := ix.Prefix(250)
	if err != nil {
		t.Fatal(err)
	}
	before := ix.MemUsage()

	var wg sync.WaitGroup
	firsts := make([]*int32, 8)
	for w := range firsts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			firsts[w] = &[]*Index{ix, pre}[w%2].Transpose().slots[0]
		}(w)
	}
	wg.Wait()
	for w, p := range firsts {
		if p != firsts[0] {
			t.Fatalf("goroutine %d got a transpose of its own", w)
		}
	}
	checkTranspose(t, "full", ix)
	checkTranspose(t, "prefix", pre)

	tr := ix.Transpose()
	if got := ix.MemUsage(); got != before {
		t.Fatalf("MemUsage %d after the build, %d before", got, before)
	}
	if got := pre.MemUsage(); got != 0 {
		t.Fatalf("prefix MemUsage %d, want 0", got)
	}

	if err := m.ExtendTo(1000); err != nil {
		t.Fatal(err)
	}
	grown, err := ix.ExtendFrom(m)
	if err != nil {
		t.Fatal(err)
	}
	unbuilt := grown.MemUsage()
	gtr := grown.Transpose()
	if gtr == tr || len(gtr.has) != (1000+63)/64 {
		t.Fatalf("ExtendFrom shares its receiver's transpose (%d words)", len(gtr.has))
	}
	if got := grown.MemUsage(); got != unbuilt {
		t.Fatalf("grown MemUsage %d after the build, %d before", got, unbuilt)
	}
	checkTranspose(t, "grown", grown)
	checkTranspose(t, "receiver after growth", ix)
	for _, theta := range []int{1, 599, 600, 601, 999} {
		p, err := grown.Prefix(theta)
		if err != nil {
			t.Fatal(err)
		}
		checkTranspose(t, fmt.Sprintf("grown prefix %d", theta), p)
	}
}

// TestEstimateScratchCleanAfterError fails an index estimate part-way
// through its walk and reuses the scratch: every per-sample array and the
// touched bitmap must be clean again, and the next estimate must equal
// one on fresh scratch.
func TestEstimateScratchCleanAfterError(t *testing.T) {
	g, probs := randomTestGraph(t, 3, 60, 300)
	m, err := SampleMRR(g, probs, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := m.BuildIndex([]int32{0, 5, 10, 15, 20, 25})
	if err != nil {
		t.Fatal(err)
	}
	s := new(AUScratch)
	if _, err := ix.EstimateAUWith([][]int32{{0, 5, 10}, {15, 1}}, paperModel, s); err == nil {
		t.Fatal("seed 1 is outside the pool")
	}
	for i := range s.counts {
		if s.counts[i] != 0 || s.pieceSeen[i] != 0 || s.touched[i>>6] != 0 {
			t.Fatalf("sample %d left dirty by the failed estimate", i)
		}
	}
	plan := [][]int32{{0, 20}, {5, 25}}
	got, err := ix.EstimateAUWith(plan, paperModel, s)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ix.EstimateAU(plan, paperModel); got != want {
		t.Fatalf("estimate on reused scratch %v, fresh scratch %v", got, want)
	}
}
