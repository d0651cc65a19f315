package traverse

import (
	"fmt"

	"oipa/internal/bitset"
	"oipa/internal/graph"
	"oipa/internal/xrand"
)

// Layer is one multiplex layer's CSR view under one viral piece: the
// traversal direction's offset/adjacency arrays plus the matching layout
// arrays, and the identity mapping that couples the layer's local node
// ids to the shared universe. A nil ToGlobal/ToLocal pair means the layer
// is numbered directly in universe ids (the common generated case).
type Layer struct {
	Off   []int64
	Adj   []int32
	Dist  []graph.NodeDist
	Probs []float64

	// ToGlobal[lu] is the universe id of the layer-local node lu; nil
	// means identity.
	ToGlobal []int32
	// ToLocal[u] is the layer-local id of universe node u, -1 when the
	// layer does not contain u; nil means identity (every universe node
	// is in the layer under its own id).
	ToLocal []int32
}

// LayerOf builds the reverse-direction (RR-sampling) Layer view of one
// multiplex layer under one piece layout — the layout's reverse walk
// view (PieceLayout.Reverse). toGlobal/toLocal follow the Layer field
// conventions.
func LayerOf(lay *graph.PieceLayout, toGlobal, toLocal []int32) Layer {
	off, adj, dist, probs := lay.Reverse()
	return Layer{Off: off, Adj: adj, Dist: dist, Probs: probs, ToGlobal: toGlobal, ToLocal: toLocal}
}

func (l *Layer) size() int { return len(l.Off) - 1 }

func (l *Layer) global(lu int32) int32 {
	if l.ToGlobal == nil {
		return lu
	}
	return l.ToGlobal[lu]
}

func (l *Layer) local(u int32) int32 {
	if l.ToLocal == nil {
		if int(u) >= l.size() {
			return -1
		}
		return u
	}
	return l.ToLocal[u]
}

// MultiWalker runs the layer-generic randomized BFS of a multiplex
// network: the geometric-skip walk of Walker per layer, with activation
// propagating across layers at shared-identity (overlap) nodes.
//
// The walk is a faithful token-level simulation of the gateway-node
// combined-graph reduction (see doc.go): every universe node is a
// gateway token, every (layer, local-node) pair a copy token, and every
// copy's stochastic in-range a sampler token. Coupling tokens expand with
// zero RNG draws, and sampler tokens reuse expand over the layer's own
// CSR arrays, so the walk consumes the RNG stream draw-for-draw like a
// plain Walker on the explicitly built combined graph — and, for a
// single identity-mapped layer, draw-for-draw like a plain Walker on
// that layer alone. Both equivalences are pinned by multiwalker_test.go.
//
// One MultiWalker serves many walks over varying piece layouts, as long
// as the universe size and per-layer node counts stay fixed; it is not
// safe for concurrent use — create one per goroutine.
type MultiWalker struct {
	n       int     // universe size
	base    []int32 // per-layer copy-id base offsets; base[len(layers)] = total copies
	gateway *bitset.Stamp
	copies  *bitset.Stamp
	queue   []int64
	out     []int32
	scratch []int32
}

// NewMultiWalker returns a walker over a universe of n nodes and layers
// of the given local node counts (in layer order).
func NewMultiWalker(n int, layerSizes []int) *MultiWalker {
	base := make([]int32, len(layerSizes)+1)
	for a, sz := range layerSizes {
		base[a+1] = base[a] + int32(sz)
	}
	return &MultiWalker{
		n:       n,
		base:    base,
		gateway: bitset.NewStamp(n),
		copies:  bitset.NewStamp(int(base[len(layerSizes)])),
		queue:   make([]int64, 0, 256),
		out:     make([]int32, 0, 64),
		scratch: make([]int32, 0, 64),
	}
}

// Run performs one multiplex reverse walk from universe node root and
// returns the reached universe nodes in activation (gateway-visit)
// order, root first. The slice aliases internal storage and is only
// valid until the next Run. layers must match the sizes the walker was
// constructed with, in the same order.
//
// Token ids mirror the combined-graph reduction's node ids — gateways in
// [0, n), copies in [n, n+C), samplers in [n+C, n+2C) — and tokens are
// expanded in FIFO order, exactly like the combined graph's BFS queue.
func (w *MultiWalker) Run(layers []Layer, root int32, rng *xrand.SplitMix64) []int32 {
	if len(layers) != len(w.base)-1 {
		panic(fmt.Sprintf("traverse: MultiWalker over %d layers got %d", len(w.base)-1, len(layers)))
	}
	n := int64(w.n)
	c := int64(w.base[len(layers)])
	w.gateway.Reset()
	w.copies.Reset()
	w.queue = w.queue[:0]
	w.out = w.out[:0]

	w.gateway.Mark(int(root))
	w.out = append(w.out, root)
	w.queue = append(w.queue, int64(root))

	for head := 0; head < len(w.queue); head++ {
		t := w.queue[head]
		switch {
		case t < n: // gateway: couple into every layer containing the node
			u := int32(t)
			for a := range layers {
				lu := layers[a].local(u)
				if lu < 0 {
					continue
				}
				if ci := w.base[a] + lu; w.copies.MarkOnce(int(ci)) {
					w.queue = append(w.queue, n+int64(ci))
				}
			}
		case t < n+c: // copy: activate the shared identity, then the layer walk
			ci := int32(t - n)
			a := w.layerOf(ci)
			lu := ci - w.base[a]
			if u := layers[a].global(lu); w.gateway.MarkOnce(int(u)) {
				w.out = append(w.out, u)
				w.queue = append(w.queue, int64(u))
			}
			// The copy's sampler is reached from this copy alone, so it is
			// always fresh — no stamp needed.
			w.queue = append(w.queue, t+c)
		default: // sampler: the layer's own stochastic in-range
			ci := int32(t - n - c)
			a := w.layerOf(ci)
			lu := ci - w.base[a]
			l := &layers[a]
			w.scratch = expand(l.Off, l.Adj, l.Dist, l.Probs, lu, rng, w.scratch[:0])
			for _, wl := range w.scratch {
				if ci := w.base[a] + wl; w.copies.MarkOnce(int(ci)) {
					w.queue = append(w.queue, n+int64(ci))
				}
			}
		}
	}
	return w.out
}

// layerOf returns the layer owning global copy index ci. Layer counts are
// small, so a linear scan beats a binary search here.
func (w *MultiWalker) layerOf(ci int32) int {
	a := 0
	for w.base[a+1] <= ci {
		a++
	}
	return a
}
