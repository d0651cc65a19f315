package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"oipa/internal/core"
)

func TestCampaignKeyCanonicalization(t *testing.T) {
	a := testCampaign(0, 1)
	b := testCampaign(0, 1)
	b.Name = "other-name"
	b.Pieces[0].Name = "renamed"
	if campaignKey(a) != campaignKey(b) {
		t.Fatal("campaign key depends on names, not just distributions")
	}
	if campaignKey(testCampaign(0, 1)) == campaignKey(testCampaign(1, 0)) {
		t.Fatal("campaign key ignores piece order")
	}
	if campaignKey(testCampaign(0)) == campaignKey(testCampaign(1)) {
		t.Fatal("campaign key ignores distributions")
	}
}

func TestRegistrySingleflightDirect(t *testing.T) {
	s := testServer(t, nil)
	camp := testCampaign(0, 2)
	const workers = 12
	arts := make([]*Artifact, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			a, _, err := s.reg.Instance(context.Background(), camp, 500, 1)
			if err != nil {
				t.Error(err)
				return
			}
			arts[w] = a
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if arts[w] != arts[0] {
			t.Fatal("concurrent Instance calls returned different artifacts")
		}
	}
	if got := s.m.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want 1", got)
	}
}

// The registry lifecycle scenarios below run through the conformance
// model (conformance_test.go): every step's served digest equals a fresh
// Prepare's, and counters, resident bytes and Len equal the model's.

// TestRegistryKeyByCampaignAndSeed: one entry per (campaign content,
// seed) serves every θ — names are not in the key — and another seed
// prepares separately.
func TestRegistryKeyByCampaignAndSeed(t *testing.T) {
	lifecycle(t, 8, "miss extend miss hit prefix hit",
		req(0, 300, 1), req(0, 400, 1), req(0, 300, 2), req(1, 400, 1), req(1, 250, 1), req(1, 300, 2))
}

// TestRegistryAscendingThetaEconomics: ascending θ over one campaign is
// one Prepare plus one growth step per larger θ.
func TestRegistryAscendingThetaEconomics(t *testing.T) {
	lifecycle(t, 8, "miss extend extend extend", req(0, 200, 1), req(0, 400, 1), req(0, 800, 1), req(0, 1600, 1))
}

// TestRegistryPrefixGolden: a smaller θ is served as a prefix of the
// larger artifact.
func TestRegistryPrefixGolden(t *testing.T) {
	lifecycle(t, 8, "miss prefix", req(0, 1200, 1), req(0, 300, 1))
}

// TestRegistryExtendGolden: a larger θ grows the artifact in place.
func TestRegistryExtendGolden(t *testing.T) {
	lifecycle(t, 8, "miss extend", req(2, 300, 1), req(2, 900, 1))
}

// TestRegistryEvictionLRU: at capacity a miss evicts the least recently
// used entry, and a request for it prepares again.
func TestRegistryEvictionLRU(t *testing.T) {
	lifecycle(t, 2, "miss miss hit evict+miss hit hit evict+miss",
		req(0, 300, 1), req(2, 300, 1), req(0, 300, 1), req(0, 300, 2), req(0, 300, 1), req(0, 300, 2), req(2, 300, 1))
}

func TestRegistryRejectsBadRequests(t *testing.T) {
	s := testServer(t, nil)
	ctx := context.Background()
	if _, _, err := s.reg.Instance(ctx, testCampaign(9), 300, 1); err == nil {
		t.Fatal("accepted a campaign with an out-of-range topic")
	}
	if _, _, err := s.reg.Instance(ctx, testCampaign(0), 0, 1); err == nil {
		t.Fatal("accepted theta = 0")
	}
	if n := s.reg.Len(); n != 0 {
		t.Fatalf("rejected requests left %d registry entries", n)
	}
}

// TestRegistryCanceledMissSkipsPrepare pins the cancellation bugfix: a
// request whose context is already canceled must not pay (or cache) the
// preparation.
func TestRegistryCanceledMissSkipsPrepare(t *testing.T) {
	s := testServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.reg.Instance(ctx, testCampaign(0), 500, 1); err == nil {
		t.Fatal("canceled miss did not surface the cancellation")
	}
	if got := s.m.prepares.Load(); got != 0 {
		t.Fatalf("canceled request ran %d prepares, want 0", got)
	}
	if n := s.reg.Len(); n != 0 {
		t.Fatalf("canceled request left %d registry entries", n)
	}
	// The entry is not poisoned: a live retry prepares normally.
	if _, outcome, err := s.reg.Instance(context.Background(), testCampaign(0), 500, 1); err != nil || outcome != OutcomeMiss {
		t.Fatalf("retry after cancellation: outcome %v, err %v", outcome, err)
	}
	// A pre-canceled larger-θ request is stopped by the same early guard
	// and leaves the entry intact (the growth path itself is pinned by
	// TestRegistryGrowthLockHonorsCancellation).
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := s.reg.Instance(ctx2, testCampaign(0), 900, 1); err == nil {
		t.Fatal("canceled growth did not surface the cancellation")
	}
	a, outcome, err := s.reg.Instance(context.Background(), testCampaign(0), 500, 1)
	if err != nil || outcome != OutcomeHit || a.Theta() != 500 {
		t.Fatalf("entry damaged by canceled growth: outcome %v, theta %d, err %v", outcome, a.Theta(), err)
	}
}

// TestRegistryGrowthLockHonorsCancellation pins the ctx-aware growth
// queue: a request canceled while queued behind an in-flight growth
// returns promptly instead of waiting out the growth, and the entry
// grows normally once the lock frees.
func TestRegistryGrowthLockHonorsCancellation(t *testing.T) {
	s := testServer(t, nil)
	r := s.reg
	camp := testCampaign(0)
	if _, _, err := r.Instance(context.Background(), camp, 300, 1); err != nil {
		t.Fatal(err)
	}
	key := instanceKey{campaign: campaignKey(camp), seed: 1}
	r.mu.Lock()
	e := r.entries[key]
	r.mu.Unlock()

	e.grow <- struct{}{} // simulate an in-flight multi-second growth
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Instance(ctx, camp, 900, 1)
		done <- err
	}()
	// Let the request park on the grow semaphore before canceling, so
	// the select's ctx arm — not the entry guard — is what fires.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request queued behind growth returned without error despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request stuck behind the growth lock")
	}
	<-e.grow // release the simulated growth

	a, outcome, err := r.Instance(context.Background(), camp, 900, 1)
	if err != nil || outcome != OutcomeExtend || a.Theta() != 900 {
		t.Fatalf("growth after lock release: outcome %v, theta %d, err %v", outcome, a.Theta(), err)
	}
	if got := s.m.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want 1", got)
	}
	if got := s.m.extends.Load(); got != 1 {
		t.Fatalf("extends = %d, want 1", got)
	}
}

// TestRegistryWaiterSurvivesOwnerCancellation: a healthy request that
// joined an in-flight preparation whose OWNER was canceled must not
// inherit the owner's ctx error — it retries and prepares itself.
func TestRegistryWaiterSurvivesOwnerCancellation(t *testing.T) {
	s := testServer(t, nil)
	r := s.reg
	camp := testCampaign(0)
	key := instanceKey{campaign: campaignKey(camp), seed: 1}

	// Mimic the miss path up to the point where the owner would build:
	// insert the unpublished entry and take its grow slot by hand, so a
	// waiter queues behind the owner.
	r.mu.Lock()
	e := newEntry(key, 1)
	r.entries[key] = e
	r.mu.Unlock()
	e.grow <- struct{}{}

	type res struct {
		outcome Outcome
		err     error
	}
	waiter := make(chan res, 1)
	go func() {
		_, outcome, err := r.Instance(context.Background(), camp, 300, 1)
		waiter <- res{outcome, err}
	}()
	// Let the waiter find the entry unpublished, then abort the owner the
	// way a canceled build ends: drop the entry, release the slot.
	for s.m.singleflightWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	r.drop(e)
	<-e.grow
	got := <-waiter
	if got.err != nil {
		t.Fatalf("waiter inherited the owner's cancellation: %v", got.err)
	}
	if got.outcome != OutcomeMiss {
		t.Fatalf("waiter retry outcome %v, want miss", got.outcome)
	}
	if got := s.m.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want 1 (the waiter's retry)", got)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("the waiter's build left %d registry entries, want 1", n)
	}
}

// TestRegistryConcurrentMixedTheta hammers one entry with concurrent
// requests at mixed θ — prefixes, exact hits and growth interleaved;
// under -race this is the growth path's data-race canary, and the
// metrics must still show one prepare and at most one extend per
// distinct growth target.
func TestRegistryConcurrentMixedTheta(t *testing.T) {
	s := testServer(t, nil)
	camp := testCampaign(0, 1)
	ctx := context.Background()
	thetas := []int{100, 300, 200, 600, 150, 600, 450, 300, 1200, 700}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		for _, theta := range thetas {
			wg.Add(1)
			go func(theta int) {
				defer wg.Done()
				<-start
				a, _, err := s.reg.Instance(ctx, camp, theta, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if a.Theta() < theta {
					t.Errorf("artifact theta %d below requested %d", a.Theta(), theta)
					return
				}
				inst, err := a.InstanceAt(theta)
				if err != nil {
					t.Error(err)
					return
				}
				if inst.Theta() != theta {
					t.Errorf("instance theta %d, want %d", inst.Theta(), theta)
				}
				withK, err := inst.WithK(2)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := a.evals.SolveGreedy(withK, core.BABOptions{}); err != nil {
					t.Error(err)
				}
			}(theta)
		}
	}
	close(start)
	wg.Wait()
	if got := s.m.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want 1", got)
	}
	// Growth only ever moves the artifact upward; with ten distinct
	// thetas racing, at most the number of distinct upward moves can run
	// — and zero is legitimate when the miss winner was a θ=1200
	// request, since every other θ is then a prefix of it.
	if got := s.m.extends.Load(); got > 6 {
		t.Fatalf("extends = %d, want at most 6", got)
	}
	if a, _, err := s.reg.Instance(ctx, camp, 1200, 1); err != nil || a.Theta() != 1200 {
		t.Fatalf("final artifact theta %d (err %v), want 1200", a.Theta(), err)
	}
	if a := s.reg.Len(); a != 1 {
		t.Fatalf("registry holds %d entries, want 1", a)
	}
}

// TestParallelSolveRegistryChurn is the lifecycle stress: concurrent
// solves hammer a single campaign while varying theta forces ExtendTo
// growth steps and θ-prefix serving of the same entry. Run under -race
// this pins that solves only ever read published immutable snapshots;
// the final solve must equal a fresh server's.
func TestParallelSolveRegistryChurn(t *testing.T) {
	churn := func(c *Config) { c.AdmitCapacity = 32 }
	s := testServer(t, churn)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	thetas := []int{300, 700, 450, 900}
	const goroutines, iters = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := steepSolve()
				req.Theta = thetas[(g+i)%len(thetas)]
				if code, raw := postJSON(t, ts, "/v1/solve", req, nil); code != http.StatusOK {
					t.Errorf("goroutine %d iter %d: status %d: %s", g, i, code, raw)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if snap := s.Metrics(); snap.Registry.PrefixHits == 0 && snap.Registry.Extends == 0 {
		t.Fatalf("churn produced no artifact transitions: %+v", snap.Registry)
	}

	fresh := httptest.NewServer(testServer(t, churn).Handler())
	defer fresh.Close()
	var got, want SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", steepSolve(), &got); code != http.StatusOK {
		t.Fatalf("post-churn solve status %d: %s", code, raw)
	}
	if code, raw := postJSON(t, fresh, "/v1/solve", steepSolve(), &want); code != http.StatusOK {
		t.Fatalf("fresh solve status %d: %s", code, raw)
	}
	if got.Utility != want.Utility || got.Upper != want.Upper || fmt.Sprint(got.Plan) != fmt.Sprint(want.Plan) {
		t.Fatalf("post-churn solve (%v, %v, %v) != fresh server's (%v, %v, %v)",
			got.Utility, got.Upper, got.Plan, want.Utility, want.Upper, want.Plan)
	}
}

// TestResidentAccounting: resident bytes follow every publish and
// eviction and do not move for a prefix.
func TestResidentAccounting(t *testing.T) {
	lifecycle(t, 1, "miss extend prefix evict+miss", req(0, 300, 1), req(0, 900, 1), req(0, 300, 1), req(2, 300, 1))
}
