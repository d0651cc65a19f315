package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"oipa/internal/core"
	"oipa/internal/faultpoint"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// The registry's lifecycle conformance model. MRR sample i depends only
// on (campaign, seed, i), so whatever path an entry took — miss, hit,
// prefix, extend, fault, re-prepare, eviction — what it serves at θ must
// equal, bit for bit, a fresh core.Prepare at (campaign, θ, seed).
// runLifecycle drives a Registry and the model through the same ops and
// checks every step (see there) while readers re-check published
// snapshots concurrently.

// confCampaigns: the first two differ only in their names, so they share
// an entry; confContent is each one's key content.
var (
	confCampaigns = func() []topic.Campaign {
		renamed := testCampaign(0, 1)
		renamed.Name, renamed.Pieces[0].Name = "renamed", "other"
		return []topic.Campaign{testCampaign(0, 1), renamed, testCampaign(2)}
	}()
	confContent = []int{0, 0, 1}
)

// fault is what an op arms for its request. A fault fires only on the
// path that reaches its hook; runLifecycle disarms it after the request
// either way.
type fault int

const (
	noFault      fault = iota
	prepareError       // registry.prepare=error#1
	publishError       // registry.grow.publish=error#1
	extendPanic        // core.extend.mid=panic#1
	heldBuild          // op.held's first build is in flight while op's request misses
)

var faultSpecs = map[fault][2]string{
	prepareError: {"registry.prepare", "error#1"},
	publishError: {"registry.grow.publish", "error#1"},
	extendPanic:  {"core.extend.mid", "panic#1"},
}

type op struct {
	camp, theta int
	seed        uint64
	fault       fault
	held        int // heldBuild: the campaign whose first build is held
}

func req(camp, theta int, seed uint64) op { return op{camp: camp, theta: theta, seed: seed} }

func (o op) with(f fault) op { o.fault = f; return o }

type modelKey struct {
	content int
	seed    uint64
}

type modelEntry struct {
	theta    int // published snapshot θ; 0 until the first build publishes
	grown    int // the collection's θ: above theta after an unpublished growth
	poisoned bool
	lastUse  int64
	art      *Artifact // the published snapshot
}

// state is what the model predicts of the registry after a step: its
// counters, resident bytes and entry count.
type state struct{ prepares, extends, hits, prefixHits, misses, reprepares, evictions, panics, resident, entries int64 }

type model struct {
	capacity int
	clock    int64
	entries  map[modelKey]*modelEntry
	n        state
	labels   []string // the current step's transitions
}

// resident is what the registry must book: every entry at its published
// snapshot's current MemUsage. That counts the samples an unpublished
// growth left in the shared collection, which only the entry's builds
// add, and no transpose, which the first solve after a build makes.
func (m *model) resident() int64 {
	var b int64
	for _, e := range m.entries {
		if e.art != nil {
			b += e.art.Instance().MemUsage()
		}
	}
	return b
}

// saw records a transition of the current step and counts it in n.
func (m *model) saw(n *int64, label string) {
	if n != nil {
		*n++
	}
	m.labels = append(m.labels, label)
}

// request predicts one Registry.Instance call: its outcome and whether
// it fails.
func (m *model) request(k modelKey, theta int, f fault) (Outcome, bool) {
	m.clock++
	e := m.entries[k]
	if e == nil {
		m.n.misses++
		e = &modelEntry{}
		m.entries[k] = e
		m.evict()
	}
	e.lastUse = m.clock
	switch {
	case e.theta > 0 && theta == e.theta:
		m.saw(&m.n.hits, "hit")
		return OutcomeHit, false
	case e.theta > 0 && theta < e.theta:
		m.saw(&m.n.prefixHits, "prefix")
		return OutcomePrefix, false
	case e.theta == 0 || e.poisoned:
		if f == prepareError {
			if e.theta == 0 {
				delete(m.entries, k)
			}
			m.saw(nil, "drop")
			return OutcomeMiss, true
		}
		m.n.prepares++
		if e.theta > 0 {
			m.saw(&m.n.reprepares, "reprepare")
		} else {
			m.saw(nil, "miss")
		}
		e.poisoned, e.grown, e.theta = false, theta, theta
		m.evict()
		return OutcomeMiss, false
	}
	e.grown = max(e.grown, theta)
	switch f {
	case extendPanic:
		e.poisoned = true
		m.saw(&m.n.panics, "poison")
		return OutcomeExtend, true
	case publishError:
		m.saw(nil, "unpublished")
		return OutcomeExtend, true
	}
	if e.grown > theta {
		m.saw(&m.n.extends, "resume") // publishes the unpublished growth
	} else {
		m.saw(&m.n.extends, "extend")
	}
	e.theta = e.grown
	m.evict()
	return OutcomeExtend, false
}

// evict drops least-recently-used published entries down to capacity.
func (m *model) evict() {
	for len(m.entries) > m.capacity {
		var old modelKey
		var oldest *modelEntry
		for k, e := range m.entries {
			if e.theta > 0 && (oldest == nil || e.lastUse < oldest.lastUse) {
				old, oldest = k, e
			}
		}
		if oldest == nil {
			return
		}
		delete(m.entries, old)
		m.saw(&m.n.evictions, "evict")
	}
}

// digest is an FNV-style hash over 64-bit words.
type digest uint64

func (d *digest) put(v uint64) { *d = (*d ^ digest(v)) * 1099511628211 }

func (d *digest) ints(xs []int32) {
	d.put(uint64(len(xs)))
	for _, x := range xs {
		d.put(uint64(uint32(x)))
	}
}

func (d *digest) float(f float64, err error) {
	if err != nil {
		f = math.NaN()
	}
	d.put(math.Float64bits(f))
}

// confPlans are two fixed plans of pool members, so the index answers
// them as well as the θ-scan.
func confPlans(in *core.Instance) [2][][]int32 {
	pool := in.Problem.Pool
	var a, b [][]int32
	for j := 0; j < in.L(); j++ {
		a = append(a, []int32{pool[j]})
		b = append(b, []int32{pool[2*j+1], pool[6+j]})
	}
	return [2][][]int32{a, b}
}

// digests hashes what a request reads off in. read covers θ, the
// inverted lists (every slot's Samples) and both plans' estimates off the
// index and off est's θ-scan bounded at in's θ (est may read a larger
// view); view adds every Root and Set; all adds the view of in's own
// Prefix(θ/2) and the core.Solve results of node-capped BAB-P and BAB,
// greedy and TIM under the default model
// and a WithK / WithModel(α 6, β 2) copy: Utility and Upper bits, plan
// and Stats.
func digests(in *core.Instance, est *rrset.AUEstimator, sc *rrset.AUScratch, full bool) (read, view, all uint64, err error) {
	var d digest
	ix, v := in.Index, in.Index.MRR()
	d.put(uint64(v.Theta()))
	for j := 0; j < v.L(); j++ {
		for p := 0; p < ix.PoolSize(); p++ {
			d.ints(ix.Samples(j, int32(p)))
		}
	}
	for _, plan := range confPlans(in) {
		d.float(ix.EstimateAUWith(plan, in.Problem.Model, sc))
		d.float(est.EstimateAUPrefix(plan, in.Problem.Model, v.Theta()))
	}
	read = uint64(d)
	for i := 0; i < v.Theta(); i++ {
		d.put(uint64(v.Root(i)))
		for j := 0; j < v.L(); j++ {
			d.ints(v.Set(i, j))
		}
	}
	if view = uint64(d); !full {
		return read, view, 0, nil
	}
	_, half, _, _ := digests(must(in.Prefix(v.Theta()/2)), est, sc, false)
	d.put(half)
	opts := core.DefaultBABOptions()
	opts.MaxNodes = 8
	steep := must(must(in.WithK(3)).WithModel(logistic.Model{Alpha: 6, Beta: 2}))
	for _, v := range []*core.Instance{must(in.WithK(2)), steep} {
		for _, method := range []string{"babp", "bab", "greedy", "tim"} {
			res, err := core.Solve(context.Background(), v, method, opts)
			if err != nil {
				return read, view, 0, err
			}
			d.put(math.Float64bits(res.Utility))
			d.put(math.Float64bits(res.Upper))
			for _, seeds := range res.Plan.Seeds {
				d.ints(seeds)
			}
			d.put(uint64(res.Stats.Nodes))
			d.put(uint64(res.Stats.BoundEvals))
			d.put(uint64(res.Stats.TauEvals))
		}
	}
	return read, view, uint64(d), nil
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// confFresh memoises the digest of a fresh core.Prepare per
// (content, θ, seed), across runs: the serve test graph is deterministic.
var confFresh = struct {
	sync.Mutex
	m map[[3]uint64]uint64
}{m: map[[3]uint64]uint64{}}

func freshDigest(t testing.TB, s *Server, camp, theta int, seed uint64) uint64 {
	t.Helper()
	key := [3]uint64{uint64(confContent[camp]), uint64(theta), seed}
	confFresh.Lock()
	defer confFresh.Unlock()
	if d, ok := confFresh.m[key]; ok {
		return d
	}
	prob := &core.Problem{G: s.cfg.Graph, Campaign: confCampaigns[camp], Pool: s.cfg.Pool, K: 1, Model: s.cfg.Model}
	in, err := core.Prepare(context.Background(), prob, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	_, _, d, err := digests(in, in.Index.MRR().NewEstimator(), new(rrset.AUScratch), true)
	if err != nil {
		t.Fatal(err)
	}
	confFresh.m[key] = d
	return d
}

// snapshot is one served (artifact, θ) and the digests it was served
// with.
type snapshot struct {
	art              *Artifact
	theta            int
	read, view, full uint64
}

// digests computes a snapshot's digests through the artifact's own
// estimator pool and its instance lineage's solver scratch, as a request
// reads it; full only when asked.
func (sn *snapshot) digests(sc *rrset.AUScratch, full bool) (snapshot, error) {
	got := snapshot{art: sn.art, theta: sn.theta}
	in, err := sn.art.InstanceAt(sn.theta)
	if err != nil {
		return got, err
	}
	est := sn.art.estimator()
	defer sn.art.putEstimator(est)
	got.read, got.view, got.full, err = digests(in, est, sc, full)
	return got, err
}

// runLifecycle plays ops against a fresh Registry of the given capacity
// and against the model, and returns the transitions taken, one
// space-separated group per op. After every step the served digest must
// equal a fresh Prepare's, every earlier snapshot its digest when
// served, and counters, resident bytes and Len the model's.
func runLifecycle(t *testing.T, capacity int, ops []op) string {
	t.Helper()
	defer faultpoint.Reset()
	s := testServer(t, func(c *Config) { c.InstanceCapacity = capacity })
	r := s.reg
	m := &model{capacity: capacity, entries: map[modelKey]*modelEntry{}}
	sc := new(rrset.AUScratch)
	var steps []string

	// Three readers each re-check one published snapshot per ticket; a
	// request hands out tickets as it starts, so the reads overlap builds.
	var mu sync.Mutex
	var snaps []*snapshot
	tickets := make(chan struct{}, 3)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(tickets)
	for i := 0; i < cap(tickets); i++ {
		wg.Add(1)
		go func(rng *rand.Rand, sc *rrset.AUScratch) {
			defer wg.Done()
			for range tickets {
				mu.Lock()
				sn := snaps[rng.Intn(len(snaps))]
				mu.Unlock()
				got, err := sn.digests(sc, false)
				if err != nil || got.read != sn.read {
					t.Errorf("reader: snapshot (θ %d of %d) changed under growth: %v", sn.theta, sn.art.Theta(), err)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(i))), new(rrset.AUScratch))
	}

	serve := func(camp, theta int, seed uint64, f fault) {
		t.Helper()
		k := modelKey{confContent[camp], seed}
		if spec, ok := faultSpecs[f]; ok {
			if err := faultpoint.Arm(spec[0], spec[1]); err != nil {
				t.Fatal(err)
			}
		}
		for len(snaps) > 0 && len(tickets) < cap(tickets) {
			tickets <- struct{}{}
		}
		art, outcome, err := r.Instance(context.Background(), confCampaigns[camp], theta, seed)
		faultpoint.Reset()
		wantOutcome, wantErr := m.request(k, theta, f)
		where := fmt.Sprintf("step %d (campaign %d, θ %d, seed %d, %s)", len(steps), camp, theta, seed, strings.Join(m.labels, "+"))
		if outcome != wantOutcome || (err != nil) != wantErr {
			t.Fatalf("%s: outcome %v, err %v; model says %v, failure %v", where, outcome, err, wantOutcome, wantErr)
		}
		if e := m.entries[k]; e != nil && !outcome.CacheHit() && err == nil {
			e.art = art
		}
		// The gauge must match the model after the build and again after
		// the solves the digests run.
		if got, want := r.ResidentBytes(), m.resident(); got != want {
			t.Fatalf("%s: %d resident bytes booked after the build, model %d", where, got, want)
		}
		if err != nil {
			return
		}
		sn, err := (&snapshot{art: art, theta: theta}).digests(sc, true)
		if err != nil || sn.full != freshDigest(t, s, camp, theta, seed) {
			t.Fatalf("%s: served digest differs from a fresh Prepare's: %v", where, err)
		}
		if got, want := r.ResidentBytes(), m.resident(); got != want {
			t.Fatalf("%s: %d resident bytes booked after its solves, model %d", where, got, want)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, old := range snaps {
			if old.art == art && old.theta == theta {
				return
			}
		}
		snaps = append(snaps, &sn)
	}
	// recheck compares every earlier snapshot with the digests it was
	// served with: its view after every step, everything at the end.
	recheck := func(full bool) {
		t.Helper()
		for _, sn := range snaps {
			got, err := sn.digests(sc, full)
			if err != nil || got.view != sn.view || full && got.full != sn.full {
				t.Fatalf("after %q: snapshot (θ %d of %d) changed: %v", steps, sn.theta, sn.art.Theta(), err)
			}
		}
	}

	for _, o := range ops {
		m.labels = m.labels[:0]
		hk := modelKey{confContent[o.held], o.seed}
		if k := (modelKey{confContent[o.camp], o.seed}); o.fault == heldBuild && hk != k && m.entries[k] == nil && m.entries[hk] == nil {
			// held's entry, unpublished with its grow slot taken, as a
			// first build leaves it; o's request misses meanwhile, then
			// held's own request finds the entry and builds it.
			key := instanceKey{campaign: campaignKey(confCampaigns[o.held]), seed: o.seed}
			r.mu.Lock()
			e := newEntry(key, r.clock)
			r.entries[key] = e
			r.mu.Unlock()
			m.entries[hk] = &modelEntry{lastUse: m.clock}
			e.grow <- struct{}{}
			m.saw(nil, "held")
			serve(o.camp, o.theta, o.seed, noFault)
			<-e.grow
			serve(o.held, o.theta, o.seed, noFault)
		} else {
			serve(o.camp, o.theta, o.seed, o.fault)
		}
		steps = append(steps, strings.Join(m.labels, "+"))

		want := m.n
		want.resident = m.resident()
		want.entries = int64(len(m.entries))
		got := state{s.m.prepares.Load(), s.m.extends.Load(), s.m.instanceHits.Load(), s.m.prefixHits.Load(), s.m.instanceMisses.Load(),
			s.m.reprepares.Load(), s.m.instanceEvictions.Load(), s.m.panicsTotal.Load(), r.ResidentBytes(), int64(r.Len())}
		if got != want || got.entries > int64(capacity) {
			t.Fatalf("after %q: registry %+v, model %+v, capacity %d", steps, got, want, capacity)
		}
		recheck(false)
	}
	recheck(true)
	return strings.Join(steps, " ")
}

// lifecycle runs one scenario and pins the transitions it takes.
func lifecycle(t *testing.T, capacity int, want string, ops ...op) {
	t.Helper()
	if got := runLifecycle(t, capacity, ops); got != want {
		t.Fatalf("transitions %q, want %q", got, want)
	}
}

// TestLifecycleConformance runs the fixed table, which takes every
// transition at least once, then seeded random sequences.
func TestLifecycleConformance(t *testing.T) {
	lifecycle(t, 2, "miss hit prefix extend unpublished resume poison prefix reprepare drop miss evict+miss evict+miss",
		req(0, 200, 1), req(1, 200, 1), req(0, 100, 1), req(0, 400, 1),
		req(0, 600, 1).with(publishError), req(0, 500, 1),
		req(0, 800, 1).with(extendPanic), req(0, 300, 1), req(0, 800, 1),
		req(2, 200, 1).with(prepareError), req(2, 200, 1),
		req(0, 200, 2), req(0, 800, 1))
	// Two first builds in flight at capacity 1: the one that publishes
	// first finds the other unpublished and evicts down to capacity at
	// its own publish.
	lifecycle(t, 1, "miss held+evict+miss+evict+miss", req(0, 200, 1), op{camp: 0, theta: 200, seed: 2, fault: heldBuild, held: 2})

	thetas := []int{40, 64, 100, 150, 200, 256}
	faults := []fault{noFault, noFault, noFault, noFault, noFault, prepareError, publishError, extendPanic, heldBuild, heldBuild}
	sequence := func(seed uint64) bool {
		rng := xrand.New(seed)
		ops := make([]op, 8)
		for i := range ops {
			o := op{camp: rng.Intn(3), theta: thetas[rng.Intn(len(thetas))], seed: 1 + uint64(rng.Intn(4)/3),
				fault: faults[rng.Intn(len(faults))], held: rng.Intn(3)}
			if o.fault == publishError || o.fault == extendPanic {
				o.theta = thetas[len(thetas)-1] // their hooks sit on the growth path
			}
			ops[i] = o
		}
		runLifecycle(t, 2, ops)
		return !t.Failed()
	}
	// -short (make race-short runs this under the race detector) keeps
	// the readers' overlap with every transition and a few sequences.
	count := 50
	if testing.Short() {
		count = 5
	}
	if err := quick.Check(sequence, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
