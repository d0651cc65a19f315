package serve

import (
	"context"
	"errors"
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
// prepared core.Instance frozen at the snapshot's θ, the entry's shared
// EvaluatorPool, and a pool of AUEstimators over the snapshot's MRR
// view. Snapshots are never invalidated — growth publishes a NEW
// Artifact while in-flight readers keep using the one they hold (views
// are frozen and shard arenas append-only, so old snapshots stay
// bit-identical forever).
type Artifact struct {
	theta int
	inst  *core.Instance
	evals *core.EvaluatorPool
	ests  sync.Pool // of *rrset.AUEstimator over inst.Index.MRR()
}

// Theta returns the sample count this artifact was frozen at (requests
// with smaller θ are served as prefixes of it).
func (a *Artifact) Theta() int { return a.theta }

// Instance returns the artifact's full-θ prepared instance. Callers must
// treat it as immutable and go through the artifact's evaluator and
// estimator pools for any scratch-carrying operation.
func (a *Artifact) Instance() *core.Instance { return a.inst }

// InstanceAt returns the instance bounded to the requested θ: the full
// instance when theta matches, an O(1) θ-prefix shallow copy when it is
// smaller. Solver results over the prefix are bit-identical to a fresh
// θ-sized preparation. theta above the artifact's θ is an error (the
// registry grows entries before handing out artifacts, so handlers
// never see it).
func (a *Artifact) InstanceAt(theta int) (*core.Instance, error) {
	if theta == a.theta {
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

// entry is one θ-monotone registry slot. The initial preparation runs
// once (ready/err, singleflight); afterwards art always holds the
// current snapshot, grown by delta sampling + Index.ExtendFrom (O(Δθ),
// never a full re-index). grow is a one-slot semaphore serializing
// growth, so concurrent larger-θ requests run one sampling pass per
// growth step, never a duplicate — a channel rather than a mutex so
// requests canceled while queued behind a multi-second growth return
// ctx.Err immediately instead of pinning a goroutine for the growth's
// duration. Readers never take it.
//
// bytes is the current artifact's MemUsage (the resident_bytes
// accounting), guarded by the registry mutex.
type entry struct {
	key     instanceKey
	ready   chan struct{} // closed once art/err are set
	err     error
	lastUse int64
	bytes   int64 // resident bytes of the current artifact

	grow chan struct{}
	art  atomic.Pointer[Artifact]

	// poisoned marks an entry whose growth step panicked: the published
	// snapshot (bounded at its own θ) is still perfectly servable, but
	// the entry's unpublished growth state — a collection possibly
	// abandoned mid-sample — must never be grown from again. The next
	// request that needs a larger θ rebuilds the entry from scratch
	// under the grow lock (reprepareEntry).
	poisoned atomic.Bool
}

func newEntry(key instanceKey, lastUse int64) *entry {
	return &entry{key: key, ready: make(chan struct{}), grow: make(chan struct{}, 1), lastUse: lastUse}
}

// Registry is the prepared-artifact cache at the heart of the service:
// per-piece layouts keyed by topic-vector hash (graph.LayoutCache) and
// θ-monotone sampling entries keyed by (campaign, seed) with LRU
// eviction. Concurrent requests for the same missing entry are
// de-duplicated (exactly one goroutine runs core.Prepare, the
// rest wait — observable as singleflight_waits vs prepares in the
// metrics); requests for a θ the entry has not reached yet take the
// entry's growth lock and grow the shared collection incrementally
// (delta sampling plus an O(Δθ) Index.ExtendFrom — never a full
// re-index), while smaller-θ requests are served immediately from a
// prefix of the current snapshot. An artifact only ever grows, is served
// as a prefix, or is evicted by LRU capacity; every published artifact
// is accounted at its core.Instance.MemUsage (resident_bytes in the
// metrics).
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

func newRegistry(g *graph.Graph, pool []int32, model logistic.Model, layoutCap, instanceCap int, m *metrics) *Registry {
	return &Registry{
		g:        g,
		pool:     pool,
		model:    model,
		layouts:  graph.NewLayoutCache(g, layoutCap),
		capacity: instanceCap,
		entries:  make(map[instanceKey]*entry),
		m:        m,
	}
}

// ResidentBytes reports the accounted bytes of every published artifact
// (exported at /metrics as resident_bytes). Old snapshots still held by
// in-flight readers are not counted — they drain with their requests.
func (r *Registry) ResidentBytes() int64 { return r.resident.Load() }

// Layouts exposes the layout cache (the /v1/simulate path samples
// straight off cached layouts without preparing an instance).
func (r *Registry) Layouts() *graph.LayoutCache { return r.layouts }

// layoutStats reads the layout cache: what an operator sizing -layouts
// has resident, and how often it served.
func (r *Registry) layoutStats() (entries int, bytes, hits, misses int64) {
	hits, misses = r.layouts.Stats()
	return r.layouts.Len(), r.layouts.MemUsage(), hits, misses
}

// Instance returns an artifact serving (campaign, theta, seed) and how
// it was obtained: a fresh preparation (miss), the current snapshot
// (exact hit or θ-prefix), or a snapshot grown to theta. The returned
// artifact is shared and immutable; callers go through its evaluator and
// estimator pools for scratch-carrying operations, and bound their reads
// with InstanceAt / EstimateAUPrefix at the requested θ.
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
	e, ok := r.entries[key]
	if !ok {
		r.m.instanceMisses.Add(1)
		r.clock++
		e = newEntry(key, r.clock)
		r.entries[key] = e
		r.evictLocked()
		r.mu.Unlock()
		return r.prepareEntry(ctx, e, campaign, theta, seed)
	}
	r.clock++
	e.lastUse = r.clock
	select {
	case <-e.ready:
	default:
		// Counts requests that waited on another's preparation —
		// independent of the hit/prefix/extend classification below,
		// since with θ out of the key a joiner may be requesting a
		// different θ than the preparing owner.
		r.m.singleflightWaits.Add(1)
	}
	r.mu.Unlock()
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, OutcomeHit, ctx.Err()
	}
	if e.err != nil {
		if errors.Is(e.err, errPrepareAborted) {
			// The owning request was canceled before it built anything.
			// That cancellation is the owner's, not ours: the aborted
			// entry is already gone from the map, so retry as a fresh
			// miss instead of surfacing someone else's ctx error.
			return r.Instance(ctx, campaign, theta, seed)
		}
		return nil, OutcomeHit, e.err
	}
	return r.serveEntry(ctx, e, campaign, theta, seed)
}

// panicError carries a panic recovered inside the serve tier (registry
// growth, handler middleware) as an ordinary error: the
// triggering request is answered with a 500, panics_total counts it,
// and the process keeps serving.
type panicError struct{ val interface{} }

func (e panicError) Error() string { return fmt.Sprintf("serve: internal panic: %v", e.val) }

// errPrepareAborted closes an entry whose owning request was canceled
// before the preparation ran. It is never returned to callers: the owner
// reports its own ctx error, and waiters retry.
var errPrepareAborted = errors.New("serve: preparation aborted by a canceled request")

// prepareEntry runs the initial preparation for a freshly inserted
// entry. The owner honors cancellation before the expensive build;
// failures (including cancellation) close the entry with the error and
// drop it from the map, so waiters fail fast and nothing half-built is
// cached — a corrected request simply retries.
func (r *Registry) prepareEntry(ctx context.Context, e *entry, campaign topic.Campaign, theta int, seed uint64) (*Artifact, Outcome, error) {
	fail := func(entryErr, err error) (*Artifact, Outcome, error) {
		// Drop the entry from the map BEFORE closing ready: a waiter that
		// wakes on errPrepareAborted retries immediately, and must find
		// the slot empty (fresh miss), not this dead entry again.
		r.mu.Lock()
		if cur, ok := r.entries[e.key]; ok && cur == e {
			delete(r.entries, e.key)
		}
		r.mu.Unlock()
		e.err = entryErr
		close(e.ready)
		return nil, OutcomeMiss, err
	}
	if err := ctx.Err(); err != nil {
		// Waiters get the retriable sentinel, not this request's ctx
		// error — their own contexts may be perfectly healthy.
		return fail(errPrepareAborted, err)
	}
	art, err := r.prepareArtifact(ctx, campaign, theta, seed)
	if err != nil {
		return fail(err, err)
	}
	e.art.Store(art)
	r.account(e, art.inst.MemUsage())
	close(e.ready)
	return art, OutcomeMiss, nil
}

// serveEntry resolves a request against a ready entry: serve the current
// snapshot (exact or as a θ-prefix — valid even on a poisoned entry,
// snapshots are immutable and bounded at their own θ), or grow it. A
// poisoned entry that needs growth is rebuilt from scratch instead —
// its unpublished growth state cannot be trusted after a panic.
func (r *Registry) serveEntry(ctx context.Context, e *entry, campaign topic.Campaign, theta int, seed uint64) (*Artifact, Outcome, error) {
	if a, outcome, ok := serveSnapshot(e.art.Load(), theta); ok {
		r.countServe(outcome)
		return a, outcome, nil
	}

	// Growth path: serialize so N concurrent (or sequential) ascending-θ
	// requests run exactly one ExtendTo per growth step — never a full
	// re-sample, never a duplicate extension. Acquisition is ctx-aware:
	// a request canceled while queued behind an in-flight growth returns
	// right away.
	select {
	case e.grow <- struct{}{}:
	case <-ctx.Done():
		return nil, OutcomeExtend, ctx.Err()
	}
	defer func() { <-e.grow }()
	if a, outcome, ok := serveSnapshot(e.art.Load(), theta); ok {
		// Another request grew past us while we waited for the lock.
		r.countServe(outcome)
		return a, outcome, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, OutcomeExtend, err
	}
	if e.poisoned.Load() {
		return r.reprepareEntry(ctx, e, campaign, theta, seed)
	}
	growCtx, sp := obs.StartSpan(ctx, "grow")
	growStart := time.Now()
	a := e.art.Load()
	na, err := r.growContained(growCtx, e, a, theta)
	sp.End()
	if err == nil {
		r.m.phaseExtend.Observe(time.Since(growStart))
	}
	if err != nil {
		// The old snapshot is untouched and stays published; a later
		// request may retry the growth (or, after a panic, trigger the
		// re-prepare path above).
		return nil, OutcomeExtend, err
	}
	e.art.Store(na)
	r.account(e, na.inst.MemUsage())
	return na, OutcomeExtend, nil
}

// growContained runs one growth step with panic containment. A panic
// anywhere in the step — delta sampling, the chaos hooks, the index
// extension — poisons the entry and surfaces as a panicError on the
// triggering request; the grow lock is released by serveEntry's defer
// during the normal (non-)unwind, the published snapshot keeps serving
// every θ at or below its own, and the next growth request rebuilds the
// entry from scratch. An ordinary error (including ctx expiry between
// sample blocks) leaves the entry healthy: partial growth is consistent
// and unpublished, so a retry resumes where it stopped.
func (r *Registry) growContained(ctx context.Context, e *entry, a *Artifact, theta int) (na *Artifact, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.m.panicsTotal.Add(1)
			e.poisoned.Store(true)
			na, err = nil, panicError{val: p}
		}
	}()
	inst, err := a.inst.ExtendTo(ctx, theta)
	if err != nil {
		return nil, err
	}
	// Chaos hook: a fault between the finished growth and the publish.
	// In error mode the grown state simply stays unpublished (a retry
	// re-extends — a no-op over the already-grown collection — and
	// publishes); in panic mode the recover above poisons the entry.
	if err := faultpoint.Hit("registry.grow.publish"); err != nil {
		return nil, err
	}
	r.m.extends.Add(1)
	r.m.indexExtendNS.Add(inst.IndexTime.Nanoseconds())
	// After ExtendTo the instance's IndexTime covers only the O(Δθ)
	// delta — exactly the index share of this growth step.
	r.m.phaseIndex.Observe(inst.IndexTime)
	a.evals.EnsureTheta(theta)
	return &Artifact{theta: theta, inst: inst, evals: a.evals}, nil
}

// reprepareEntry rebuilds a poisoned entry from scratch while holding
// its grow lock: a fresh preparation at the requested θ (which is above
// the snapshot's θ — smaller requests were already served off the
// snapshot), published with a fresh evaluator pool. Sampling is
// deterministic in (campaign, seed, i), so the rebuilt artifact is
// bit-identical to one prepared on a server that never panicked — the
// chaos suite pins exactly this. On failure the entry stays poisoned
// and its snapshot keeps serving.
func (r *Registry) reprepareEntry(ctx context.Context, e *entry, campaign topic.Campaign, theta int, seed uint64) (*Artifact, Outcome, error) {
	na, err := r.prepareArtifact(ctx, campaign, theta, seed)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	e.art.Store(na)
	e.poisoned.Store(false)
	r.m.reprepares.Add(1)
	r.account(e, na.inst.MemUsage())
	return na, OutcomeMiss, nil
}

// account books the entry's current artifact at bytes, adjusting the
// registry-wide resident gauge by the delta. Entries no longer in the
// map (evicted while this request was growing the orphan) are not
// accounted: their artifacts die with their in-flight readers.
func (r *Registry) account(e *entry, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.entries[e.key]; !ok || cur != e {
		return
	}
	r.resident.Add(bytes - e.bytes)
	e.bytes = bytes
}

// serveSnapshot classifies a request against one published snapshot:
// exact hit, θ-prefix, or (ok=false) in need of growth.
func serveSnapshot(a *Artifact, theta int) (*Artifact, Outcome, bool) {
	switch {
	case theta == a.theta:
		return a, OutcomeHit, true
	case theta < a.theta:
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
// panicError so the calling request fails with a 500 while every waiter
// fails fast on the same error — and the process keeps serving;
// "registry.prepare" is its chaos hook.
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
	return &Artifact{theta: theta, inst: inst, evals: core.NewEvaluatorPool(inst)}, nil
}

// evictLocked drops least-recently-used completed entries until the
// count is back within capacity, releasing their accounted bytes;
// in-flight preparations are never evicted (waiters hold them). An entry
// evicted while one request is still growing it is harmless: the growth
// completes on the orphaned entry (unaccounted — see account) and the
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
			select {
			case <-e.ready:
			default:
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
