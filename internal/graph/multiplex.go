package graph

import (
	"errors"
	"fmt"
	"math"

	"oipa/internal/topic"
)

// MultiplexLayer is one layer of a multiplex network: a directed graph
// with its own edge set and topic probabilities, plus the identity
// mapping tying the layer's local node ids to the shared universe.
type MultiplexLayer struct {
	G *Graph
	// ToGlobal[lu] is the universe id of the layer-local node lu. nil
	// means the layer is numbered directly in universe ids (local node
	// lu IS universe node lu); then G.N() must not exceed the universe
	// size.
	ToGlobal []int32
}

// Multiplex is an ordered set of layers over a shared node universe
// [0, n): one user participates in several networks, each with its own
// diffusion edges, and activation couples across layers at shared
// identities (multiplex influence maximization in the sense of Kuhnle
// et al.). All layers share one topic space.
//
// A Multiplex is immutable after construction and safe for concurrent
// use; each layer owns a LayoutCache. No program path builds one: it
// stays for the benchmark's rrset.sample_mux1_ms row, which samples a
// one-identity-layer multiplex through rrset.SampleMRRMultiplexLayouts.
type Multiplex struct {
	n      int
	z      int
	layers []MultiplexLayer
	// toLocal[a][u] is layer a's local id of universe node u (-1 when
	// absent); nil when layer a is identity-mapped.
	toLocal [][]int32
	caches  []*LayoutCache
}

// NewMultiplex builds a multiplex over a universe of n nodes (n <= 0
// infers the smallest universe covering every layer). layoutCapacity
// is the strong window of each layer's piece-layout cache: how many of
// its most recently used layouts it keeps alive (<= 0: none, so a
// layer's layout lives while a caller holds it).
func NewMultiplex(n int, layers []MultiplexLayer, layoutCapacity int) (*Multiplex, error) {
	if len(layers) == 0 {
		return nil, errors.New("graph: multiplex needs at least one layer")
	}
	z := layers[0].G.Z()
	if n <= 0 {
		for _, l := range layers {
			if l.ToGlobal == nil {
				if l.G.N() > n {
					n = l.G.N()
				}
				continue
			}
			for _, u := range l.ToGlobal {
				if int(u) >= n {
					n = int(u) + 1
				}
			}
		}
	}
	m := &Multiplex{n: n, z: z, layers: layers, toLocal: make([][]int32, len(layers)), caches: make([]*LayoutCache, len(layers))}
	for a, l := range layers {
		if l.G == nil {
			return nil, fmt.Errorf("graph: multiplex layer %d has no graph", a)
		}
		if l.G.Z() != z {
			return nil, fmt.Errorf("graph: multiplex layer %d has %d topics, layer 0 has %d", a, l.G.Z(), z)
		}
		if l.ToGlobal == nil {
			if l.G.N() > n {
				return nil, fmt.Errorf("graph: identity layer %d has %d nodes, universe %d", a, l.G.N(), n)
			}
		} else {
			if len(l.ToGlobal) != l.G.N() {
				return nil, fmt.Errorf("graph: layer %d maps %d of %d nodes", a, len(l.ToGlobal), l.G.N())
			}
			tl := make([]int32, n)
			for i := range tl {
				tl[i] = -1
			}
			for lu, u := range l.ToGlobal {
				if u < 0 || int(u) >= n {
					return nil, fmt.Errorf("graph: layer %d node %d maps outside universe [0,%d)", a, lu, n)
				}
				if tl[u] >= 0 {
					return nil, fmt.Errorf("graph: layer %d maps nodes %d and %d to the same identity %d", a, tl[u], lu, u)
				}
				tl[u] = int32(lu)
			}
			m.toLocal[a] = tl
		}
		m.caches[a] = NewLayoutCache(l.G, layoutCapacity)
	}
	return m, nil
}

// N returns the universe size.
func (m *Multiplex) N() int { return m.n }

// L returns the number of layers.
func (m *Multiplex) L() int { return len(m.layers) }

// Layer returns layer a's graph.
func (m *Multiplex) Layer(a int) *Graph { return m.layers[a].G }

// ToGlobal returns layer a's local→universe mapping (nil = identity).
func (m *Multiplex) ToGlobal(a int) []int32 { return m.layers[a].ToGlobal }

// ToLocal returns layer a's universe→local mapping with -1 for absent
// nodes (nil = identity).
func (m *Multiplex) ToLocal(a int) []int32 { return m.toLocal[a] }

// LayerSizes returns the per-layer local node counts in layer order.
func (m *Multiplex) LayerSizes() []int {
	sizes := make([]int, len(m.layers))
	for a, l := range m.layers {
		sizes[a] = l.G.N()
	}
	return sizes
}

// Layouts returns one PieceLayout per layer for a piece with topic
// distribution t, built through (and cached by) each layer's
// LayoutCache.
func (m *Multiplex) Layouts(t topic.Vector) ([]*PieceLayout, error) {
	out := make([]*PieceLayout, len(m.layers))
	for a, c := range m.caches {
		lay, err := c.Get(t)
		if err != nil {
			return nil, fmt.Errorf("graph: multiplex layer %d: %w", a, err)
		}
		out[a] = lay
	}
	return out, nil
}

// CombinedGraph materializes the gateway-node reduction of the
// multiplex into one explicit Graph (see the traverse package's doc.go
// for the construction): gateways occupy ids [0, n), layer copies
// [n, n+C) and samplers [n+C, n+2C), where C is the total layer-local
// node count. Every layer edge wl→ul with topic vector p becomes
// copy(a,wl)→sampler(a,ul) carrying p, and the coupling edges
// sampler→copy, copy→gateway and gateway→copy carry probability 1 on
// every topic, so any campaign piece activates them surely.
//
// A diffusion on the combined graph restricted to gateway nodes is
// exactly the multiplex diffusion; the reduction exists to cross-check
// traverse.MultiWalker draw-for-draw and is quadratic in nothing — the
// combined graph has n + 2C nodes and M + 2C + C edges.
func (m *Multiplex) CombinedGraph() (*Graph, error) {
	c := 0
	base := make([]int32, len(m.layers)+1)
	for a, l := range m.layers {
		base[a+1] = base[a] + int32(l.G.N())
	}
	c = int(base[len(m.layers)])
	total := m.n + 2*c
	if int64(m.n)+2*int64(c) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: combined multiplex of %d nodes overflows int32 ids", int64(m.n)+2*int64(c))
	}
	ones := topic.Vector{Idx: make([]int32, m.z), Val: make([]float64, m.z)}
	for z := range ones.Idx {
		ones.Idx[z] = int32(z)
		ones.Val[z] = 1
	}
	copyID := func(a int, lu int32) int32 { return int32(m.n) + base[a] + lu }
	samplerID := func(a int, lu int32) int32 { return int32(m.n) + int32(c) + base[a] + lu }

	b := NewBuilder(total, m.z)
	for a, l := range m.layers {
		g := l.G
		for wl := int32(0); int(wl) < g.N(); wl++ {
			to, edges := g.OutNeighbors(wl)
			for i, ul := range to {
				if err := b.AddEdge(copyID(a, wl), samplerID(a, ul), g.EdgeProb(edges[i])); err != nil {
					return nil, err
				}
			}
		}
		for lu := int32(0); int(lu) < g.N(); lu++ {
			u := lu
			if l.ToGlobal != nil {
				u = l.ToGlobal[lu]
			}
			if err := b.AddEdge(samplerID(a, lu), copyID(a, lu), ones); err != nil {
				return nil, err
			}
			if err := b.AddEdge(copyID(a, lu), u, ones); err != nil {
				return nil, err
			}
			if err := b.AddEdge(u, copyID(a, lu), ones); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}
