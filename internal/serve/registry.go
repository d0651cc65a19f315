package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oipa/internal/core"
	"oipa/internal/faultpoint"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/obs"
	"oipa/internal/rrset"
	"oipa/internal/topic"
)

// instanceKey identifies one θ-monotone sampling entry: the campaign's
// canonical piece content (names excluded — two campaigns with the same
// distributions share samples) and the sampling seed. θ is deliberately
// NOT part of the key: MRR sample i is identical for a given
// (campaign, seed) regardless of how far the collection has grown, so
// one entry serves every requested θ — smaller ones through θ-prefix
// views, larger ones by extending the shared collection in place. Budget k and the adoption model are not
// in the key either: neither affects the samples or the index, so
// per-request variation is served through core.Instance.WithK /
// WithModel shallow copies over one artifact.
type instanceKey struct {
	campaign string
	seed     uint64
}

// campaignKey renders the piece distributions in a canonical, collision
// free form: topic indices with exact IEEE-754 value bits, pieces in
// campaign order.
func campaignKey(c topic.Campaign) string {
	var sb strings.Builder
	for _, p := range c.Pieces {
		for i, idx := range p.Dist.Idx {
			fmt.Fprintf(&sb, "%d:%016x;", idx, math.Float64bits(p.Dist.Val[i]))
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// Outcome classifies how the registry satisfied an Instance call.
type Outcome int

const (
	// OutcomeMiss: no entry existed; a full preparation ran.
	OutcomeMiss Outcome = iota
	// OutcomeHit: an artifact at exactly the requested θ was served.
	OutcomeHit
	// OutcomePrefix: a larger artifact was served as a θ-prefix view —
	// no sampling, no index work.
	OutcomePrefix
	// OutcomeExtend: the entry's collection was grown to the requested θ
	// (one incremental sampling pass plus an O(Δθ) index extension — only
	// the new samples are appended to the inverted lists) and a new
	// artifact was published.
	OutcomeExtend
)

// CacheHit reports whether the request was served without any sampling
// work (an exact or θ-prefix artifact).
func (o Outcome) CacheHit() bool { return o == OutcomeHit || o == OutcomePrefix }

func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeHit:
		return "hit"
	case OutcomePrefix:
		return "prefix"
	case OutcomeExtend:
		return "extend"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Artifact is one immutable published snapshot of a θ-monotone entry: a
// prepared core.Instance frozen at the snapshot's θ, whose lineage holds
// the entry's solver scratch, and a pool of AUEstimators over the
// snapshot's MRR view. Snapshots are never invalidated — growth
// publishes a NEW Artifact while in-flight readers keep using the one
// they hold (views are frozen and shard arenas append-only, so old
// snapshots stay bit-identical forever).
type Artifact struct {
	inst *core.Instance
	ests sync.Pool // of *rrset.AUEstimator over inst.Index.MRR()
}

// Theta returns the sample count this artifact was frozen at (requests
// with smaller θ are served as prefixes of it).
func (a *Artifact) Theta() int { return a.inst.Theta() }

// Instance returns the artifact's full-θ prepared instance. Callers must
// treat it as immutable, solve it through core.Solve and estimate
// through the artifact's estimator pool.
func (a *Artifact) Instance() *core.Instance { return a.inst }

// InstanceAt returns the instance bounded to the requested θ: the full
// instance when theta matches, an O(1) θ-prefix shallow copy when it is
// smaller. Solver results over the prefix are bit-identical to a fresh
// θ-sized preparation. theta above the artifact's θ is an error (the
// registry grows entries before handing out artifacts, so handlers
// never see it).
func (a *Artifact) InstanceAt(theta int) (*core.Instance, error) {
	if theta == a.Theta() {
		return a.inst, nil
	}
	return a.inst.Prefix(theta)
}

// estimator checks an AUEstimator out of the artifact's pool. Estimator
// mark scratch is sized by the graph, not θ, so one estimator serves any
// θ-prefix of the artifact's view (AUEstimator.EstimateAUPrefix).
func (a *Artifact) estimator() *rrset.AUEstimator {
	if e, ok := a.ests.Get().(*rrset.AUEstimator); ok {
		return e
	}
	return a.inst.Index.MRR().NewEstimator()
}

func (a *Artifact) putEstimator(e *rrset.AUEstimator) { a.ests.Put(e) }

// entry is one θ-monotone registry slot. art is the current published
// snapshot, nil until the first preparation publishes; readers load it
// without locking. Every build of the entry — the first preparation, a
// growth step (delta sampling + Index.ExtendFrom, O(Δθ), never a full
// re-index) and a re-prepare after a panic — runs under grow, a one-slot
// semaphore, so concurrent requests for a θ the snapshot does not cover
// run one build, never a duplicate, and the rest find its snapshot once
// they take the slot. It is a channel rather than a mutex so a request
// canceled while queued behind a multi-second build returns ctx.Err
// immediately instead of pinning a goroutine for the build's duration.
//
// bytes is the current artifact's MemUsage (the resident_bytes
// accounting), guarded by the registry mutex. It is booked whenever a
// build under grow ends, so it also counts samples an unpublished
// growth left in the shared collection.
type entry struct {
	key     instanceKey
	lastUse int64
	bytes   int64 // resident bytes of the current artifact

	grow chan struct{}
	art  atomic.Pointer[Artifact]

	// poisoned marks an entry whose growth step panicked: its published
	// snapshot still serves, but its growth state — a collection perhaps
	// abandoned mid-sample — is never grown from again; the next request
	// for a larger θ prepares the entry from scratch under grow.
	poisoned atomic.Bool
}

func newEntry(key instanceKey, lastUse int64) *entry {
	return &entry{key: key, grow: make(chan struct{}, 1), lastUse: lastUse}
}

// Registry is the prepared-artifact cache at the heart of the service:
// θ-monotone sampling entries keyed by (campaign, seed) with LRU
// eviction, and an index of the live per-piece layouts keyed by
// topic-vector hash (graph.LayoutCache with no strong window), so
// campaigns and requests that share a piece share its layout while any
// of them holds it, and an evicted entry's layouts go with it. A
// request whose θ the entry's snapshot covers is served from it at
// once, exactly or as a θ-prefix. Any other request takes the
// entry's grow slot and builds: the first preparation (exactly one
// goroutine runs core.Prepare while identical requests queue —
// observable as singleflight_waits vs prepares in the metrics), a growth
// step (delta sampling plus an O(Δθ) Index.ExtendFrom — never a full
// re-index) or a re-prepare of a poisoned entry. An artifact only ever
// grows, is served as a prefix, or is evicted by LRU capacity; every
// published artifact is accounted at its core.Instance.MemUsage
// (resident_bytes in the metrics).
type Registry struct {
	g        *graph.Graph
	pool     []int32
	model    logistic.Model
	layouts  *graph.LayoutCache
	capacity int

	mu      sync.Mutex
	entries map[instanceKey]*entry
	clock   int64

	resident atomic.Int64

	m *metrics
}

func newRegistry(g *graph.Graph, pool []int32, model logistic.Model, instanceCap int, m *metrics) *Registry {
	return &Registry{
		g:        g,
		pool:     pool,
		model:    model,
		layouts:  graph.NewLayoutCache(g, 0),
		capacity: instanceCap,
		entries:  make(map[instanceKey]*entry),
		m:        m,
	}
}

// ResidentBytes reports the accounted bytes of every published artifact
// (exported at /metrics as resident_bytes). Old snapshots still held by
// in-flight readers are not counted — they drain with their requests.
func (r *Registry) ResidentBytes() int64 { return r.resident.Load() }

// layoutStats reads the layout cache: the live layouts, their bytes, and
// how often a Get found one alive.
func (r *Registry) layoutStats() (entries int, bytes, hits, misses int64) {
	hits, misses = r.layouts.Stats()
	return r.layouts.Len(), r.layouts.MemUsage(), hits, misses
}

// Instance returns an artifact serving (campaign, theta, seed) and how
// it was obtained: a fresh preparation (miss), the current snapshot
// (exact hit or θ-prefix), or a snapshot grown to theta. The returned
// artifact is shared and immutable; callers go through its estimator
// pool for estimates, and bound their reads with InstanceAt /
// EstimateAUPrefix at the requested θ.
func (r *Registry) Instance(ctx context.Context, campaign topic.Campaign, theta int, seed uint64) (*Artifact, Outcome, error) {
	if err := campaign.Validate(r.g.Z()); err != nil {
		return nil, OutcomeMiss, fmt.Errorf("serve: campaign: %w", err)
	}
	if theta <= 0 {
		return nil, OutcomeMiss, fmt.Errorf("serve: non-positive theta %d", theta)
	}
	// An already-canceled request must not pay (or trigger) a
	// multi-second build; bail before touching the cache.
	if err := ctx.Err(); err != nil {
		return nil, OutcomeMiss, err
	}
	key := instanceKey{campaign: campaignKey(campaign), seed: seed}

	r.mu.Lock()
	r.clock++
	e, ok := r.entries[key]
	if !ok {
		r.m.instanceMisses.Add(1)
		e = newEntry(key, r.clock)
		r.entries[key] = e
		r.evictLocked()
	} else {
		e.lastUse = r.clock
		if e.art.Load() == nil {
			// Counts requests that found another's first preparation
			// unpublished — independent of their outcome, since with θ
			// out of the key a joiner may ask for a different θ.
			r.m.singleflightWaits.Add(1)
		}
	}
	r.mu.Unlock()
	return r.serveEntry(ctx, e, campaign, theta, seed)
}

// panicError carries a panic recovered inside the serve tier (registry
// builds, handler middleware) as an ordinary error: the triggering
// request is answered with a 500, panics_total counts it, and the
// process keeps serving.
type panicError struct{ val interface{} }

func (e panicError) Error() string { return fmt.Sprintf("serve: internal panic: %v", e.val) }

// serveEntry resolves a request against its entry. The published
// snapshot serves it when it covers θ, exactly or as a θ-prefix — even
// on a poisoned entry, since snapshots are immutable and bounded at their
// own θ. Otherwise the request takes grow and builds: it prepares when
// the entry has no snapshot yet or is poisoned (its unpublished growth
// state cannot be trusted after a panic), and grows the snapshot
// otherwise. A failed first preparation drops the entry, so nothing
// half-built is cached. A request queued on grow finds what the holder
// before it left: a snapshot that now covers θ, or an entry that failure
// dropped, in which case it goes back through Instance so that its own
// build is cached.
func (r *Registry) serveEntry(ctx context.Context, e *entry, campaign topic.Campaign, theta int, seed uint64) (*Artifact, Outcome, error) {
	if a, outcome, ok := serveSnapshot(e.art.Load(), theta); ok {
		r.countServe(outcome)
		return a, outcome, nil
	}
	// A free slot is taken even when ctx is done, so a request that gives
	// up here always leaves an unpublished entry to a holder that
	// publishes or drops it; the ctx check below reports the cancellation.
	select {
	case e.grow <- struct{}{}:
	default:
		select {
		case e.grow <- struct{}{}:
		case <-ctx.Done():
			return nil, OutcomeExtend, ctx.Err()
		}
	}
	a := e.art.Load()
	if a == nil && !r.holds(e) {
		<-e.grow
		return r.Instance(ctx, campaign, theta, seed)
	}
	defer func() { <-e.grow }()
	if a, outcome, ok := serveSnapshot(a, theta); ok {
		// Another request built past us while we waited for the slot.
		r.countServe(outcome)
		return a, outcome, nil
	}

	var na *Artifact
	outcome, err := OutcomeExtend, ctx.Err()
	switch {
	case err != nil:
	case a == nil || e.poisoned.Load():
		// Sampling is deterministic in (campaign, seed, i), so a re-prepared
		// artifact is bit-identical to one prepared on a server that never
		// panicked — the chaos suite pins exactly this.
		outcome = OutcomeMiss
		if na, err = r.prepareArtifact(ctx, campaign, theta, seed); err == nil && a != nil {
			e.poisoned.Store(false)
			r.m.reprepares.Add(1)
		}
	default:
		na, err = r.growContained(ctx, e, a, theta)
	}
	if err != nil {
		// Only a failed first preparation leaves nothing worth keeping: a
		// failed growth or re-prepare leaves the old snapshot published
		// (and, after a panic, the entry poisoned) for a later request.
		// Publishing it again rebooks its bytes: a growth that failed
		// after sampling left the shared collection under it grown.
		if a == nil {
			r.drop(e)
		} else {
			r.publish(e, a)
		}
		return nil, outcome, err
	}
	r.publish(e, na)
	return na, outcome, nil
}

// growContained runs one growth step under a "grow" span, with panic
// containment. A panic anywhere in the step — delta sampling, the chaos
// hooks, the index extension — poisons the entry and surfaces as a
// panicError on the triggering request; the grow slot is released by
// serveEntry's defer, the published snapshot keeps serving every θ at
// or below its own, and the next growth request prepares the entry from
// scratch. An ordinary error (including ctx expiry between sample
// blocks) leaves the entry healthy: partial growth is consistent and
// unpublished, so a retry resumes where it stopped.
func (r *Registry) growContained(ctx context.Context, e *entry, a *Artifact, theta int) (na *Artifact, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.m.panicsTotal.Add(1)
			e.poisoned.Store(true)
			na, err = nil, panicError{val: p}
		}
	}()
	ctx, sp := obs.StartSpan(ctx, "grow")
	defer sp.End()
	start := time.Now()
	inst, err := a.inst.ExtendTo(ctx, theta)
	if err != nil {
		return nil, err
	}
	// Chaos hook: a fault between the finished growth and the publish.
	// In error mode the grown state stays unpublished, and the next
	// growth publishes it: the snapshot is frozen at inst's θ, above
	// theta when an unpublished growth (this, or a canceled one) went
	// further. In panic mode the recover above poisons the entry.
	if err := faultpoint.Hit("registry.grow.publish"); err != nil {
		return nil, err
	}
	r.m.extends.Add(1)
	r.m.indexExtendNS.Add(inst.IndexTime.Nanoseconds())
	// After ExtendTo the instance's IndexTime covers only the O(Δθ)
	// delta — exactly the index share of this growth step.
	r.m.phaseIndex.Observe(inst.IndexTime)
	r.m.phaseExtend.Observe(time.Since(start))
	return &Artifact{inst: inst}, nil
}

// holds reports whether e is still the map's entry for its key.
func (r *Registry) holds(e *entry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[e.key] == e
}

// drop removes e from the map if it is still there.
func (r *Registry) drop(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[e.key] == e {
		delete(r.entries, e.key)
	}
}

// publish stores a as e's current snapshot, books its current MemUsage
// (moving the resident gauge by the delta) and evicts down to capacity.
// Its caller holds e's grow slot, so nothing grows the collection under
// a meanwhile. An entry no longer in the map (evicted while this request
// was building it) is not booked: its artifacts die with their
// in-flight readers.
func (r *Registry) publish(e *entry, a *Artifact) {
	bytes := a.inst.MemUsage()
	r.mu.Lock()
	defer r.mu.Unlock()
	e.art.Store(a)
	if r.entries[e.key] != e {
		return
	}
	r.resident.Add(bytes - e.bytes)
	e.bytes = bytes
	r.evictLocked()
}

// serveSnapshot classifies a request against one published snapshot:
// exact hit, θ-prefix, or (ok=false) in need of a build — always so
// when there is no snapshot yet.
func serveSnapshot(a *Artifact, theta int) (*Artifact, Outcome, bool) {
	switch {
	case a == nil:
	case theta == a.Theta():
		return a, OutcomeHit, true
	case theta < a.Theta():
		return a, OutcomePrefix, true
	}
	return nil, OutcomeExtend, false
}

// countServe classifies every request served off an existing snapshot;
// together with prepares (misses) and extends these counters partition
// the successful request stream.
func (r *Registry) countServe(outcome Outcome) {
	switch outcome {
	case OutcomeHit:
		r.m.instanceHits.Add(1)
	case OutcomePrefix:
		r.m.prefixHits.Add(1)
	}
}

// prepareArtifact materializes a fresh artifact at theta under a
// "prepare" span, feeding the prepare and index phase histograms. A panic
// inside the preparation is recovered, counted, and returned as a
// panicError, so the calling request fails with a 500 and the process
// keeps serving; "registry.prepare" is its chaos hook.
//
// Piece layouts come through the shared layout cache, so campaigns
// overlapping in pieces share them. Prepare honors ctx at sample-block
// granularity, so an expired request deadline abandons the build
// instead of finishing work nobody will read. The budget placeholder
// k=1 is never used directly — request handlers derive WithK copies.
func (r *Registry) prepareArtifact(ctx context.Context, campaign topic.Campaign, theta int, seed uint64) (art *Artifact, err error) {
	ctx, sp := obs.StartSpan(ctx, "prepare")
	defer sp.End()
	defer func() {
		if p := recover(); p != nil {
			r.m.panicsTotal.Add(1)
			art, err = nil, panicError{val: p}
		}
	}()
	start := time.Now()
	if err := faultpoint.Hit("registry.prepare"); err != nil {
		return nil, err
	}
	r.m.prepares.Add(1)
	prob := &core.Problem{G: r.g, Campaign: campaign, Pool: r.pool, K: 1, Model: r.model}
	layouts := make([]*graph.PieceLayout, campaign.L())
	for j, piece := range campaign.Pieces {
		lay, err := r.layouts.Get(piece.Dist)
		if err != nil {
			return nil, fmt.Errorf("serve: piece %d: %w", j, err)
		}
		layouts[j] = lay
	}
	inst, err := core.Prepare(ctx, prob, theta, seed, layouts...)
	if err != nil {
		return nil, err
	}
	r.m.phasePrepare.Observe(time.Since(start))
	r.m.phaseIndex.Observe(inst.IndexTime)
	return &Artifact{inst: inst}, nil
}

// evictLocked drops least-recently-used published entries until the
// count is back within capacity, releasing their accounted bytes; an
// unpublished entry is never evicted (the request building it holds
// grow and will publish or drop it, and publish evicts again). An entry
// evicted while one request is still growing it is harmless: the growth
// completes on the orphaned entry (unaccounted — see publish) and the
// next request re-prepares.
func (r *Registry) evictLocked() {
	if r.capacity <= 0 {
		return
	}
	for len(r.entries) > r.capacity {
		var (
			oldKey instanceKey
			oldest *entry
		)
		for k, e := range r.entries {
			if e.art.Load() == nil {
				continue
			}
			if oldest == nil || e.lastUse < oldest.lastUse {
				oldKey, oldest = k, e
			}
		}
		if oldest == nil {
			return
		}
		delete(r.entries, oldKey)
		r.resident.Add(-oldest.bytes)
		oldest.bytes = 0
		r.m.instanceEvictions.Add(1)
	}
}

// Len returns the number of cached (or in-flight) entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
