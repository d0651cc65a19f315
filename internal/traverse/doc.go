// Package traverse implements the randomized BFS core of the
// reverse-reachable sampler (internal/rrset), plus its layer-generic
// extension to multiplex networks, which only the benchmark's
// rrset.sample_mux1_ms row still reaches (through
// rrset.SampleMRRMultiplexLayouts). The forward cascade simulator
// (internal/cascade) shares none of it: it is the sampler's independent
// check.
//
// # Single-graph walks
//
// Walker.RunFrom expands a frontier from one root over a
// graph.PieceLayout's reverse walk view (PieceLayout.Reverse: only the
// edges with p > 0, each node's range summarized by a graph.NodeDist):
// probabilities are read in CSR position order, and nodes whose edge
// range carries one common probability are expanded with geometric-skip
// jumps (SUBSIM-style) instead of one coin flip per edge. A long mixed
// range whose largest probability q is small is expanded by SUBSIM's
// bound sampling: jumps at q, each candidate thinned to its own p. expand
// is the per-node core, shared with MultiWalker, over plain slices so the
// loop stays allocation-free.
//
// Determinism contract: for a fixed (walk view, seed sequence) a walk
// consumes RNG draws in a fixed order, node by node in visit order:
//
//   - a uniform range with p ∈ (0,1) of at most GeoSkipMinDeg edges, and
//     a mixed range of at most GeoSkipMinDeg edges or with q ≥
//     GeoSkipMaxQ: one draw per edge with p < 1, in position order
//     (edges with p ≥ 1 are live with none);
//   - a longer uniform range: the all-dead test U ≤ (1−p)^deg, then one
//     draw per geometric jump;
//   - a longer mixed range with q < GeoSkipMaxQ: the all-dead test at q,
//     then at each candidate position one thinning draw U (live iff
//     U·q < p) unless its p equals q, then the next jump's draw;
//   - empty, dead and p ≥ 1 ranges: none.
//
// The rrset schedule-invariance suite relies on this order. A uniform
// range is unchanged by the bounded case, so weighted-cascade walks draw
// as they did before it.
//
// # Multiplex walks and the coupling rule
//
// No program path runs a multiplex walk: MultiWalker is kept for the
// benchmark row above and goes with it. MultiWalker generalizes the walk to an ordered set of layers over a
// shared node universe (multiplex influence maximization in the sense of
// Kuhnle et al.): each layer runs the same geometric-skip BFS over its
// own CSR and layout, and activation couples across layers losslessly at
// overlap nodes — a node activated in any layer is activated in every
// layer containing its shared identity, with probability 1 and no decay.
//
// The coupling rule is made precise (and testable) by a gateway-node
// combined-graph reduction. Build one explicit graph with three node
// kinds over id ranges [0,n) ∪ [n,n+C) ∪ [n+C,n+2C), where C is the
// total layer-local node count:
//
//   - gateway g(u): the shared identity of universe node u;
//   - copy c(a,lu): node lu of layer a;
//   - sampler s(a,lu): the stochastic in-range of c(a,lu).
//
// A layer-a edge wl→ul with probability p becomes c(a,wl)→s(a,ul) with
// probability p; coupling edges s(a,ul)→c(a,ul), c(a,ul)→g(u) and
// g(u)→c(a,lu) (one per member layer) all carry probability 1. A
// reverse walk seeded at g(root) then reaches exactly the universe nodes
// a multiplex diffusion from root reaches.
//
// The three-kind split is what makes the reduction lossless *at the RNG
// level*, not just distributionally: every stochastic in-range (the
// samplers') is a verbatim copy of one layer's in-range — same order,
// same probabilities, hence the same geometric-skip dispatch — and every
// coupling in-range is uniformly probability 1, which the walk expands
// with zero draws. MultiWalker simulates this reduction token-for-token
// without materializing it, so its draw sequence matches a plain Walker
// on the explicitly built combined graph draw-for-draw, and collapses to
// the plain single-graph walk bit-identically when given one
// identity-mapped layer. multiwalker_test.go pins both equivalences on
// seeded random multiplexes; graph.Multiplex.CombinedGraph builds the
// reduction for such cross-checks.
package traverse
