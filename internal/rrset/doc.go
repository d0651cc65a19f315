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
// homogeneous influence graph G_j as a reverse CSR of its own with the
// probabilities alongside in position order (no per-edge indirection),
// and nodes whose in-edges share one probability — the weighted-cascade
// case, p = 1/in-degree — are sampled with geometric-skip jumps
// (SUBSIM-style), paying O(1 + p·indeg) RNG draws instead of O(indeg)
// coin flips. A mixed-probability node with more than
// traverse.GeoSkipMinDeg in-edges and a largest probability q below
// traverse.GeoSkipMaxQ jumps the same way at q and thins each candidate
// to its own p, paying O(1 + q·indeg) draws (SUBSIM's bound sampling);
// other mixed nodes flip one coin per in-edge.
//
// Samplers walk a layout's reverse walk view (PieceLayout.Reverse): the
// in-edges with p > 0, each node's range summarized over exactly those.
// A layout built from a topic vector (Graph.PieceLayout,
// LayoutCache.Get, core.Prepare) stores only those edges, which on
// sparse topic data is most of every in-range the walk would otherwise
// scan, and is its own view. A layout built from an explicit probability
// vector (Graph.Layout — SampleMRR, tests and the benchmark harness)
// keeps every edge aligned with Graph.InCSR positions in its exported
// arrays and builds the pruned view on its first walk. The two views are
// equal array for array, so sample i is bit-identical under either
// constructor (pinned by layoutparity_test.go).
//
// # One collection, one graph
//
// There is one collection type, MRRCollection, and one constructor,
// NewMRRCollection, over one graph and its per-piece layouts: it
// validates the layouts and derives sample i's RNG and root from
// (seed, i). A plain RR collection — what the IM baselines cover — is
// the one-piece (ℓ = 1) case. SampleMRR and SampleMRRLayouts are thin
// wrappers. Cancellation enters through ExtendToCtx only.
//
// SampleMRRMultiplexLayouts samples over a graph.Multiplex (layers
// coupled at shared identities, in the sense of Kuhnle et al.) through
// traverse.MultiWalker. No program path reaches it: it is kept only for
// the benchmark's rrset.sample_mux1_ms row, which times a
// one-identity-layer multiplex — bit-identical to its layer's graph —
// beside the one-graph walk. newSubstrate is the one place the package
// tells the two apart.
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
// # Two exact estimators, one float64
//
// σ̂(S̄) (Eq. 6) has two exact implementations. The θ-scan
// (EstimateAUScan, AUEstimator) scores every RR set, O(total RR size),
// and accepts any node id as a seed. Index.EstimateAUWith reads only
// the inverted lists of the plan's seeds, which must be pool members,
// and touches only the samples they reach. Both add the per-sample
// adoptions in ascending sample order (an uncovered sample adds an exact
// 0 to the scan), so on every plan both accept they return the same
// float64 (estimate_order_test.go). The serve tier answers /v1/estimate
// through the index, falls back to the scan for plans the index refuses,
// and keeps the scan as the benchmark oracle. The bottom-k sketches
// (sketch.go) are an approximate estimator that no serving path reads;
// only the benchmark's layer rows still time them.
//
// # Artifact lifecycle: grow, prefix
//
// Collections and their indexes only grow. ExtendTo appends samples
// [oldθ, newθ) into the existing shards, and Index.ExtendFrom appends
// only those samples to each inverted list — sample ids are strictly
// ascending, so a growth step's index work is O(Δθ · avg-set-size), not
// a full O(θ) rebuild (the pre-delta engine rebuilt the exact-fit CSR on
// every growth step). Prefix serves any smaller θ as an O(1) view over
// the grown storage. MemUsage on collections, views and indexes reports
// the resident bytes a grown artifact pins; the serve registry exports
// their sum as resident_bytes and releases an artifact only by LRU
// eviction.
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
