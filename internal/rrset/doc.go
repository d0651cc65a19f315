// Package rrset implements reverse-reachable (RR) set sampling — the
// estimation machinery behind both the paper's baselines and its core
// algorithms (§V-A).
//
// A random RR set is built by (i) choosing a root node uniformly at
// random and (ii) sampling a deterministic subgraph by keeping each edge
// e with its activation probability p(e); the RR set is every node that
// reaches the root in the sampled subgraph (found by reverse BFS that
// decides each in-edge's liveness on first touch). The fraction of RR
// sets hit by a seed set S estimates σ_im(S)/n (Borgs et al. 2014).
//
// The paper extends this to Multi-RR (MRR) sets: one root is drawn per
// sample, and ℓ RR sets are grown from it — one per viral piece, each
// under that piece's own edge probabilities. An assignment plan covers
// piece j of sample i when S_j intersects R_i^j, and the adoption utility
// estimator (Eq. 6, with Eq. 1's zero-when-uncovered semantics) plugs the
// per-sample coverage counts into the logistic model.
//
// The sampling engine walks graph.PieceLayouts: a layout is one piece's
// homogeneous influence graph G_j as a reverse CSR of its own
// (InOff/InFrom) with the probabilities alongside in position order (no
// per-edge indirection), and nodes whose in-edges share one probability —
// the weighted-cascade case, p = 1/in-degree — are sampled with
// geometric-skip jumps (SUBSIM-style), paying O(1 + p·indeg) RNG draws
// instead of O(indeg) coin flips. Mixed-probability nodes fall back to
// one flip per in-edge.
//
// A layout built from a topic vector (Graph.PieceLayout, LayoutCache.Get,
// Multiplex.Layouts, core.Prepare) is pruned: edges with p(t, e) = 0 are
// not in G_j and are not stored, which on sparse topic data is most of
// every in-range the walk would otherwise scan. A layout built from an
// explicit probability vector (Graph.Layout — SampleMRR, tests and the
// benchmark harness) keeps every edge and
// stays aligned with Graph.InCSR positions. Both sample the same sets:
// per-node dispatch metadata is computed over the full in-range either
// way, and a zero-probability edge never draws a random number, so sample
// i is bit-identical under either representation (pinned by
// layoutparity_test.go). Samplers therefore always walk the layout's own
// arrays, never the graph's.
//
// # One substrate, one fork
//
// A collection samples over a substrate: a node universe [0, n), the
// graph of every layer, and the per-piece layouts as [piece][layer]. One
// graph is the one-layer case; a graph.Multiplex (layers coupled at shared
// identities, in the sense of Kuhnle et al.) is the general one. There is
// one collection type, MRRCollection, and one constructor,
// NewMRRCollection, taking a graph or a multiplex: it validates the
// layouts, derives sample i's RNG and root from (seed, i) the same way
// over both, and stores universe node ids, so ExtendTo, views, the index,
// sketches and the estimators never know which it was given. A plain RR
// collection — what the IM baselines cover — is the one-piece (ℓ = 1)
// case. SampleMRR, SampleMRRLayouts and SampleMRRMultiplexLayouts are
// thin wrappers.
// The package asks "one graph or many layers?" in exactly one place,
// newSubstrate, where the per-worker sampler is chosen: traverse.Walker
// for one graph, traverse.MultiWalker otherwise. A one-identity-layer
// multiplex samples bit-identically to its layer's graph; Walker stays as
// the one-graph specialisation because it measures ~5 % faster there.
// Cancellation enters through ExtendToCtx only.
//
// # Sharded storage
//
// Sampled sets live in per-worker shards, not one monolithic arena. Each
// work-stealing worker appends the sets of the blocks it claims into its
// own arena (an internal shard: a nodes slice plus set-end offsets), and
// a tiny per-block directory records which shard each block of sample
// indices landed in. Workers therefore never contend on storage, nothing
// is copied when they finish — the pre-shard engine's post-sampling
// stitch (an O(TotalSize) memmove re-packing every block buffer into one
// arena) is gone — and ExtendTo grows the same shards in place, which is
// what lets collections reach production theta (10^7+) without paying a
// second arena of peak memory.
//
// Reads go through the directory: Set(i, j) finds the sampling run by
// binary search (one run per ExtendTo call), the block by one division,
// and the set bounds by two offset loads. MRRCollection.View snapshots
// the directory and shard headers into an immutable read-side MRRView
// exposing the same Set/Root/Theta/EstimateAUScan API; because shard
// arenas are append-only, a view stays valid and bit-identical even while
// the parent collection keeps growing. (EstimateAUScan carries lazily
// allocated scratch, so a single MRRView value — like an MRRCollection —
// must not be used from multiple goroutines concurrently; take one view
// per goroutine, or one AUEstimator per goroutine over a shared view.)
//
// # Artifact lifecycle: grow, shrink
//
// Collections and their indexes grow incrementally and shed memory
// incrementally. ExtendTo appends samples [oldθ, newθ) into the existing
// shards, and Index.ExtendFrom appends only those samples to each
// inverted list — sample ids are strictly ascending, so a growth step's
// index work is O(Δθ · avg-set-size), not a full O(θ) rebuild (the
// pre-delta engine rebuilt the exact-fit CSR on every growth step).
// ShrinkTo runs the other direction: it re-materializes a θ-prefix as an
// owned, compact collection (single exact-fit shard, seed and layouts
// retained so it can regrow the identical samples), which is what lets a
// long-running service bound the memory a grown artifact pins. MemUsage
// on collections, views and indexes reports the resident bytes these
// transitions move, and the serve-layer memory governor steers shrinks
// and evictions by it.
//
// # Determinism contract
//
// Sampling is parallel and deterministic: sample i derives its RNG stream
// from (seed, i), so any worker schedule — and any shard count — produces
// bit-identical sets and estimates. Workers claim
// fixed-size blocks of sample indices from an atomic counter (work
// stealing), so skewed RR-set sizes cannot strand the tail of the
// workload behind one straggler; only the physical placement of a set
// (which shard holds it) depends on the schedule, never its contents or
// its position in the read-side order. The shardtest conformance suite
// pins this contract against a naive single-arena reference
// implementation at 1, 4 and NumCPU shards.
package rrset
