package serve

import (
	"context"
	"sync"
	"testing"
)

// TestGovernorShrinksColdGrowth drives one entry through the full
// artifact lifecycle: grow it far past what traffic keeps asking for,
// let the demand age out of the recency window, and assert the governor
// θ-shrinks the artifact back to the recently requested θ — dropping
// resident bytes — without ever re-preparing, and that a later larger-θ
// request regrows bit-identical samples.
func TestGovernorShrinksColdGrowth(t *testing.T) {
	// Budget of 1 byte: every published artifact exceeds it, so the
	// pressure policy runs on every request and the test exercises pure
	// policy (what shrinks, what is spared) rather than threshold math.
	s := testServer(t, func(c *Config) { c.MemBudget = 1; c.MemEpoch = 4 })
	r := s.reg
	camp := testCampaign(0, 2)
	ctx := context.Background()
	plan := [][]int32{{1, 5}, {9}}

	if _, outcome, err := r.Instance(ctx, camp, 400, 1); err != nil || outcome != OutcomeMiss {
		t.Fatalf("first request: outcome %v, err %v", outcome, err)
	}
	big, outcome, err := r.Instance(ctx, camp, 1200, 1)
	if err != nil || outcome != OutcomeExtend {
		t.Fatalf("growth request: outcome %v, err %v", outcome, err)
	}
	est := big.estimator()
	wantBig, err := est.EstimateAUPrefix(plan, s.cfg.Model, 1200)
	if err != nil {
		t.Fatal(err)
	}
	big.putEstimator(est)
	grownBytes := r.ResidentBytes()
	if grownBytes <= 0 {
		t.Fatalf("resident bytes %d after growth", grownBytes)
	}
	// The hot entry must not shrink under its own live demand: the
	// growth request itself is within the recency window.
	if got := s.m.shrinks.Load(); got != 0 {
		t.Fatalf("governor shrank a hot entry (%d shrinks)", got)
	}

	// Traffic settles at θ=200. After the 1200-request ages out of the
	// window (two epoch rotations), reclaim shrinks the artifact to the
	// largest recently requested θ.
	for i := 0; i < 3*4+2; i++ {
		a, outcome, err := r.Instance(ctx, camp, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !outcome.CacheHit() {
			t.Fatalf("request %d at θ=200: outcome %v, want a cache hit", i, outcome)
		}
		e := a.estimator()
		if _, err := e.EstimateAUPrefix(plan, s.cfg.Model, 200); err != nil {
			t.Fatal(err)
		}
		a.putEstimator(e)
	}
	if got := s.m.shrinks.Load(); got == 0 {
		t.Fatal("governor never shrank the cold grown entry")
	}
	a, outcome, err := r.Instance(ctx, camp, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta() != 200 {
		t.Fatalf("artifact theta %d after shrink, want 200 (outcome %v)", a.Theta(), outcome)
	}
	if got := r.ResidentBytes(); got >= grownBytes {
		t.Fatalf("resident bytes did not drop across shrink: %d -> %d", grownBytes, got)
	}
	if got := s.m.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want 1 (shrink must not re-prepare)", got)
	}
	// Never evicted: the entry stayed within the recency window.
	if got := s.m.instanceEvictions.Load(); got != 0 {
		t.Fatalf("governor evicted the live entry (%d evictions)", got)
	}

	// Regrowth after a shrink reproduces the identical samples.
	re, outcome, err := r.Instance(ctx, camp, 1200, 1)
	if err != nil || outcome != OutcomeExtend {
		t.Fatalf("regrowth: outcome %v, err %v", outcome, err)
	}
	est = re.estimator()
	gotBig, err := est.EstimateAUPrefix(plan, s.cfg.Model, 1200)
	if err != nil {
		t.Fatal(err)
	}
	re.putEstimator(est)
	if gotBig != wantBig {
		t.Fatalf("regrown estimate %v != pre-shrink estimate %v", gotBig, wantBig)
	}
	if got := s.m.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d after regrowth, want 1", got)
	}
}

// TestGovernorEvictsFullyColdEntries: an entry nothing has requested for
// a full recency window is evicted under pressure (after shrinking can
// no longer help), while recently used entries are spared even over
// budget.
func TestGovernorEvictsFullyColdEntries(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MemBudget = 1; c.MemEpoch = 3 })
	r := s.reg
	cold := testCampaign(0)
	hot := testCampaign(1, 2)
	ctx := context.Background()

	if _, _, err := r.Instance(ctx, cold, 300, 1); err != nil {
		t.Fatal(err)
	}
	// Hammer the other entry until the cold one ages past the window and
	// its recency-tracked θ rotates to zero.
	for i := 0; i < 12; i++ {
		if _, _, err := r.Instance(ctx, hot, 300, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("registry holds %d entries, want the cold one evicted", got)
	}
	if got := s.m.instanceEvictions.Load(); got == 0 {
		t.Fatal("no eviction recorded")
	}
	// The hot entry survives, resident accounting covers exactly it.
	a, outcome, err := r.Instance(ctx, hot, 300, 1)
	if err != nil || outcome != OutcomeHit {
		t.Fatalf("hot entry after evictions: outcome %v, err %v", outcome, err)
	}
	if got, want := r.ResidentBytes(), a.Instance().MemUsage(); got != want {
		t.Fatalf("resident bytes %d != surviving artifact bytes %d", got, want)
	}
	// The cold campaign re-prepares on next demand.
	if _, outcome, err := r.Instance(ctx, cold, 300, 1); err != nil || outcome != OutcomeMiss {
		t.Fatalf("evicted campaign: outcome %v, err %v (want miss)", outcome, err)
	}
}

// TestResidentAccountingUngoverned: with no budget the governor never
// shrinks or byte-evicts, but resident accounting still tracks every
// publish and capacity eviction, and counts nothing for a θ-prefix view —
// the gauge the operator watches before choosing a budget.
func TestResidentAccountingUngoverned(t *testing.T) {
	s := testServer(t, func(c *Config) { c.InstanceCapacity = 1 })
	r := s.reg
	ctx := context.Background()

	a1, _, err := r.Instance(ctx, testCampaign(0), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResidentBytes(), a1.Instance().MemUsage(); got != want {
		t.Fatalf("resident bytes %d != artifact bytes %d", got, want)
	}
	g1, _, err := r.Instance(ctx, testCampaign(0), 900, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResidentBytes(), g1.Instance().MemUsage(); got != want {
		t.Fatalf("resident bytes %d != grown artifact bytes %d", got, want)
	}
	// A θ-prefix of the grown artifact is a view that owns no bytes: the
	// gauge must not move.
	if _, outcome, err := r.Instance(ctx, testCampaign(0), 300, 1); err != nil || outcome != OutcomePrefix {
		t.Fatalf("θ=300 after growth: outcome %v, err %v; want a prefix", outcome, err)
	}
	if got, want := r.ResidentBytes(), g1.Instance().MemUsage(); got != want {
		t.Fatalf("prefix request moved resident bytes to %d, want %d", got, want)
	}
	// Capacity-1 LRU: preparing a second campaign evicts the first and
	// releases its accounted bytes.
	a2, _, err := r.Instance(ctx, testCampaign(1), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResidentBytes(), a2.Instance().MemUsage(); got != want {
		t.Fatalf("resident bytes %d != surviving artifact bytes %d", got, want)
	}
	if got := s.m.shrinks.Load(); got != 0 {
		t.Fatalf("ungoverned registry shrank %d times", got)
	}
	snap := s.Metrics()
	if snap.Registry.ResidentBytes != r.ResidentBytes() {
		t.Fatal("metrics snapshot disagrees with registry resident gauge")
	}
	if snap.Registry.MemBudget != 0 {
		t.Fatalf("ungoverned snapshot reports budget %d", snap.Registry.MemBudget)
	}
}

// TestGovernorUnderConcurrentMixedTheta hammers a governed registry with
// concurrent mixed-θ traffic over two campaigns while the governor
// shrinks and regrows behind the requests: every estimate must stay
// bit-identical to its θ's reference — shrink, regrow and eviction are
// invisible to results (run under -race in CI).
func TestGovernorUnderConcurrentMixedTheta(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MemBudget = 1; c.MemEpoch = 2 })
	r := s.reg
	ctx := context.Background()
	campaigns := []int{0, 1}
	thetas := []int{100, 300, 600}
	plan := [][]int32{{1, 5}, {9}}

	// References: one estimate per (campaign, θ), taken before the hammer.
	want := map[[2]int]float64{}
	for _, c := range campaigns {
		camp := testCampaign(int32(c), 2)
		for _, th := range thetas {
			a, _, err := r.Instance(ctx, camp, th, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := a.estimator()
			u, err := e.EstimateAUPrefix(plan, s.cfg.Model, th)
			a.putEstimator(e)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{c, th}] = u
		}
	}

	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := campaigns[(w+i)%len(campaigns)]
				th := thetas[(w*7+i)%len(thetas)]
				a, _, err := r.Instance(ctx, testCampaign(int32(c), 2), th, 1)
				if err != nil {
					t.Error(err)
					return
				}
				e := a.estimator()
				u, err := e.EstimateAUPrefix(plan, s.cfg.Model, th)
				a.putEstimator(e)
				if err != nil {
					t.Error(err)
					return
				}
				if u != want[[2]int{c, th}] {
					t.Errorf("campaign %d θ=%d: estimate %v != reference %v", c, th, u, want[[2]int{c, th}])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
