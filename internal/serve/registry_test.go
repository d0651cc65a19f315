package serve

import (
	"context"
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

// TestRegistryKeyByCampaignAndSeed pins the θ-monotone keying: the same
// (campaign, seed) shares one entry across every requested θ, while a
// different seed still prepares separately.
func TestRegistryKeyByCampaignAndSeed(t *testing.T) {
	s := testServer(t, nil)
	camp := testCampaign(0)
	ctx := context.Background()
	a1, outcome, err := s.reg.Instance(ctx, camp, 300, 1)
	if err != nil || outcome != OutcomeMiss {
		t.Fatalf("first request: outcome %v, err %v", outcome, err)
	}
	a2, outcome, err := s.reg.Instance(ctx, camp, 400, 1)
	if err != nil || outcome != OutcomeExtend {
		t.Fatalf("larger theta: outcome %v, err %v (want extend)", outcome, err)
	}
	if a2.Theta() != 400 {
		t.Fatalf("grown artifact theta %d, want 400", a2.Theta())
	}
	if a1.Theta() != 300 || a1.Instance().Theta() != 300 {
		t.Fatal("growth invalidated the previously returned snapshot")
	}
	if _, outcome, err = s.reg.Instance(ctx, camp, 300, 2); err != nil || outcome != OutcomeMiss {
		t.Fatalf("different seed: outcome %v, err %v (want miss)", outcome, err)
	}
	if _, outcome, err = s.reg.Instance(ctx, camp, 400, 1); err != nil || outcome != OutcomeHit {
		t.Fatalf("exact theta: outcome %v, err %v (want hit)", outcome, err)
	}
	if _, outcome, err = s.reg.Instance(ctx, camp, 250, 1); err != nil || outcome != OutcomePrefix {
		t.Fatalf("smaller theta: outcome %v, err %v (want prefix)", outcome, err)
	}
	if got := s.m.prepares.Load(); got != 2 {
		t.Fatalf("prepares = %d, want 2 (one per seed)", got)
	}
	if got := s.reg.Len(); got != 2 {
		t.Fatalf("registry holds %d entries, want 2", got)
	}
}

// TestRegistryAscendingThetaEconomics is the PR's acceptance criterion:
// N identical-campaign requests with ascending θ perform exactly one
// Prepare plus one ExtendTo per growth step — never a full re-sample —
// and every step's artifact reports the requested θ.
func TestRegistryAscendingThetaEconomics(t *testing.T) {
	s := testServer(t, nil)
	camp := testCampaign(0, 1)
	ctx := context.Background()
	steps := []int{200, 400, 800, 1600}
	for i, theta := range steps {
		a, outcome, err := s.reg.Instance(ctx, camp, theta, 1)
		if err != nil {
			t.Fatalf("step %d (theta %d): %v", i, theta, err)
		}
		want := OutcomeExtend
		if i == 0 {
			want = OutcomeMiss
		}
		if outcome != want {
			t.Fatalf("step %d (theta %d): outcome %v, want %v", i, theta, outcome, want)
		}
		if a.Theta() != theta {
			t.Fatalf("step %d: artifact theta %d, want %d", i, a.Theta(), theta)
		}
	}
	if got := s.m.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want exactly 1", got)
	}
	if got := s.m.extends.Load(); got != int64(len(steps)-1) {
		t.Fatalf("extends = %d, want %d (one per growth step)", got, len(steps)-1)
	}
	if got := s.reg.Len(); got != 1 {
		t.Fatalf("registry holds %d entries, want 1", got)
	}
}

// TestRegistryPrefixGolden is the bit-identity acceptance criterion: a
// θ-prefix solve and estimate against a large cached artifact must equal
// — bit for bit — the same query against a freshly prepared θ-sized
// instance.
func TestRegistryPrefixGolden(t *testing.T) {
	camp := testCampaign(0, 1, 2)
	req := SolveRequest{Campaign: camp, Method: "babp", K: 4, Theta: 300, Seed: 1}

	// Fresh server prepared directly at the small θ.
	fresh := testServer(t, nil)
	if err := fresh.normalizeSolve(&req); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Cached server prepared at 4x the θ, serving the same request as a
	// prefix.
	cached := testServer(t, nil)
	if _, _, err := cached.reg.Instance(context.Background(), camp, 1200, 1); err != nil {
		t.Fatal(err)
	}
	got, err := cached.solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.PrefixHit || got.PreparedTheta != 1200 {
		t.Fatalf("expected a prefix hit off the 1200-sample artifact, got %+v", got)
	}
	if got.Utility != want.Utility || got.Upper != want.Upper {
		t.Fatalf("prefix solve (%v, %v) != fresh solve (%v, %v)",
			got.Utility, got.Upper, want.Utility, want.Upper)
	}
	if len(got.Plan) != len(want.Plan) {
		t.Fatalf("plan shapes differ: %v vs %v", got.Plan, want.Plan)
	}
	for j := range want.Plan {
		if len(got.Plan[j]) != len(want.Plan[j]) {
			t.Fatalf("piece %d plans differ: %v vs %v", j, got.Plan, want.Plan)
		}
		for i := range want.Plan[j] {
			if got.Plan[j][i] != want.Plan[j][i] {
				t.Fatalf("piece %d plans differ: %v vs %v", j, got.Plan, want.Plan)
			}
		}
	}

	// Estimates of the solved plan agree bit-for-bit too.
	model := fresh.cfg.Model
	freshArt, _, err := fresh.reg.Instance(context.Background(), camp, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	cachedArt, _, err := cached.reg.Instance(context.Background(), camp, 1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	we := freshArt.estimator()
	wantU, err := we.EstimateAU(want.Plan, model)
	if err != nil {
		t.Fatal(err)
	}
	ge := cachedArt.estimator()
	gotU, err := ge.EstimateAUPrefix(want.Plan, model, 300)
	if err != nil {
		t.Fatal(err)
	}
	if gotU != wantU {
		t.Fatalf("prefix estimate %v != fresh estimate %v", gotU, wantU)
	}
}

// TestRegistryExtendGolden: growing a small artifact to θ must serve the
// same results as preparing at θ directly.
func TestRegistryExtendGolden(t *testing.T) {
	camp := testCampaign(1, 2)
	req := SolveRequest{Campaign: camp, Method: "babp", K: 3, Theta: 900, Seed: 1}

	fresh := testServer(t, nil)
	if err := fresh.normalizeSolve(&req); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	grown := testServer(t, nil)
	if _, _, err := grown.reg.Instance(context.Background(), camp, 300, 1); err != nil {
		t.Fatal(err)
	}
	got, err := grown.solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Extended || got.PreparedTheta != 900 {
		t.Fatalf("expected the request to extend the artifact to 900, got %+v", got)
	}
	if got.Utility != want.Utility || got.Upper != want.Upper {
		t.Fatalf("extended solve (%v, %v) != fresh solve (%v, %v)",
			got.Utility, got.Upper, want.Utility, want.Upper)
	}
	if grown.m.prepares.Load() != 1 || grown.m.extends.Load() != 1 {
		t.Fatalf("prepares=%d extends=%d, want 1 and 1",
			grown.m.prepares.Load(), grown.m.extends.Load())
	}
}

func TestRegistryEvictionLRU(t *testing.T) {
	s := testServer(t, func(c *Config) { c.InstanceCapacity = 2 })
	ctx := context.Background()
	get := func(z int32) {
		t.Helper()
		if _, _, err := s.reg.Instance(ctx, testCampaign(z), 300, 1); err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	get(1)
	get(0) // refresh 0: LRU is now campaign(1)
	get(2) // evicts campaign(1)
	if n := s.reg.Len(); n != 2 {
		t.Fatalf("registry holds %d instances, want 2", n)
	}
	if got := s.m.instanceEvictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	prepBefore := s.m.prepares.Load()
	get(0) // still resident
	get(2) // still resident
	if got := s.m.prepares.Load(); got != prepBefore {
		t.Fatal("resident instances were re-prepared")
	}
	get(1) // evicted: must re-prepare
	if got := s.m.prepares.Load(); got != prepBefore+1 {
		t.Fatalf("re-request of evicted campaign ran %d prepares, want 1", got-prepBefore)
	}
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
	// insert the in-flight entry by hand so a waiter can join it.
	r.mu.Lock()
	e := newEntry(key, 1, 300)
	r.entries[key] = e
	r.mu.Unlock()

	type res struct {
		outcome Outcome
		err     error
	}
	waiter := make(chan res, 1)
	go func() {
		_, outcome, err := r.Instance(context.Background(), camp, 300, 1)
		waiter <- res{outcome, err}
	}()
	// Let the waiter block on the in-flight entry, then abort the owner.
	for s.m.singleflightWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.prepareEntry(ctx, e, camp, nil, 300, 1); err == nil {
		t.Fatal("canceled owner did not surface its own ctx error")
	}
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
