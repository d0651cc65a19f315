package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// rawEdge is one record of the graph file as a test writes it: entries are
// stored as given, zero values and all, where Write stores only what a
// validated Vector holds.
type rawEdge struct {
	from, to uint32
	idx      []uint32
	val      []float64
}

// encodeGraph writes the graph file format with a header claiming m edges
// and the records in the order given.
func encodeGraph(n uint32, m uint64, z uint32, edges []rawEdge) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, n)
	b = binary.LittleEndian.AppendUint64(b, m)
	b = binary.LittleEndian.AppendUint32(b, z)
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint32(b, e.from)
		b = binary.LittleEndian.AppendUint32(b, e.to)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(e.idx)))
		for j := range e.idx {
			b = binary.LittleEndian.AppendUint32(b, e.idx[j])
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.val[j]))
		}
	}
	return b
}

// plainReader hides a reader's length, so Read takes the path of a pipe.
type plainReader struct{ io.Reader }

// TestReadRefusals pins the text of every refusal a record can draw, in
// the order Read checks them, through a reader whose length Read can see
// and through one whose length it cannot.
func TestReadRefusals(t *testing.T) {
	one := func(to uint32, idx uint32, val float64) rawEdge {
		return rawEdge{0, to, []uint32{idx}, []float64{val}}
	}
	full := encodeGraph(4, 2, 2, []rawEdge{one(1, 0, 0.5), {0, 2, []uint32{0, 1}, []float64{0.5, 0.25}}})
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"duplicate edge", encodeGraph(4, 3, 2, []rawEdge{one(1, 0, 0.5), one(2, 1, 0.5), one(1, 1, 0.5)}),
			"graph: duplicate edge (0,1)"},
		{"topics not increasing", encodeGraph(4, 1, 2, []rawEdge{{0, 1, []uint32{1, 1}, []float64{0.5, 0.5}}}),
			"graph: edge 0: topic: indices not strictly increasing at position 1"},
		{"topic index 2^32-1", encodeGraph(4, 1, 2, []rawEdge{one(1, math.MaxUint32, 0.5)}),
			"graph: edge 0: topic: indices not strictly increasing at position 0"},
		{"NaN", encodeGraph(4, 2, 2, []rawEdge{one(1, 0, 0.5), one(2, 1, math.NaN())}),
			"graph: edge 1: topic: invalid value NaN at position 0"},
		{"negative", encodeGraph(4, 1, 2, []rawEdge{{0, 1, []uint32{0, 1}, []float64{0, -0.5}}}),
			"graph: edge 0: topic: invalid value -0.5 at position 1"},
		{"order before value", encodeGraph(4, 1, 2, []rawEdge{{0, 9, []uint32{1, 0}, []float64{-1, 0.5}}}),
			"graph: edge 0: topic: invalid value -1 at position 0"},
		{"node out of range", encodeGraph(4, 1, 2, []rawEdge{one(4, 0, 0.5)}),
			"graph: edge (0,4) outside [0,4)"},
		{"node 2^32-1", encodeGraph(4, 1, 2, []rawEdge{{math.MaxUint32, 1, nil, nil}}),
			"graph: edge (-1,1) outside [0,4)"},
		{"vector before node", encodeGraph(4, 1, 2, []rawEdge{one(7, 0, math.NaN())}),
			"graph: edge 0: topic: invalid value NaN at position 0"},
		{"p > 1", encodeGraph(4, 1, 2, []rawEdge{{0, 1, []uint32{0, 1}, []float64{0.5, 1.5}}}),
			"graph: edge (0,1) has probability 1.5 > 1"},
		{"topic >= z", encodeGraph(4, 1, 2, []rawEdge{{0, 1, []uint32{0, 2}, []float64{1.5, 0.5}}}),
			"graph: edge (0,1) references topic 2 outside [0,2)"},
		{"truncated record header", full[:24+22+4],
			"graph: reading edge 1: unexpected EOF"},
		{"missing record", encodeGraph(4, 2, 2, []rawEdge{{0, 1, []uint32{0, 1}, []float64{0.5, 0.25}}}),
			"graph: reading edge 1: EOF"},
		{"truncated entry", full[:len(full)-5],
			"graph: reading edge 1 entry 1: unexpected EOF"},
		{"missing entry", full[:len(full)-12],
			"graph: reading edge 1 entry 1: EOF"},
		{"truncated header", full[:20], "graph: reading header: unexpected EOF"},
		{"empty", nil, "graph: reading magic: EOF"},
		{"truncated magic", full[:3], "graph: reading magic: unexpected EOF"},
	} {
		for _, r := range []io.Reader{bytes.NewReader(tc.body), plainReader{bytes.NewReader(tc.body)}} {
			_, err := Read(r)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (%T): error %v, want %q", tc.name, r, err, tc.want)
			}
		}
	}
	// A zero entry is dropped before the topic range is checked, as
	// topic.NewVector drops it.
	g, err := Read(bytes.NewReader(encodeGraph(4, 1, 2, []rawEdge{{0, 1, []uint32{0, 5}, []float64{0.5, 0}}})))
	if err != nil || g.EdgeProb(0).NNZ() != 1 {
		t.Fatalf("a zero entry past z: graph %v, error %v", g, err)
	}
}

// TestReadMatchesBuilder: the records of a random graph, written in
// shuffled order with zero-valued entries among them, read back to the
// graph a Builder makes of the same edges with the zeros left out —
// array for array. The graphs include self-loops, isolated trailing
// nodes, empty vectors, m = 0 and n = 0.
func TestReadMatchesBuilder(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n, z := r.Intn(40), 1+r.Intn(6)
		live := n - r.Intn(n/4+1) // nodes [live, n) get no edge
		b := NewBuilder(n, z)
		var raw []rawEdge
		seen := map[[2]int]bool{}
		for k := r.Intn(4*live + 1); k > 0 && live > 0; k-- {
			u, v := r.Intn(live), r.Intn(live)
			if seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			e := rawEdge{from: uint32(u), to: uint32(v)}
			var p topic.Vector
			for zi := 0; zi < z; zi++ {
				switch r.Intn(3) {
				case 1:
					e.idx, e.val = append(e.idx, uint32(zi)), append(e.val, 0)
				case 2:
					x := 1 - r.Float64()
					e.idx, e.val = append(e.idx, uint32(zi)), append(e.val, x)
					p.Idx, p.Val = append(p.Idx, int32(zi)), append(p.Val, x)
				}
			}
			if err := b.AddEdge(int32(u), int32(v), p); err != nil {
				t.Fatal(err)
			}
			raw = append(raw, e)
		}
		for i, j := range r.Perm(len(raw)) {
			raw[i], raw[j] = raw[j], raw[i]
		}
		want, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		body := encodeGraph(uint32(n), uint64(len(raw)), uint32(z), raw)
		for _, rd := range []io.Reader{bytes.NewReader(body), plainReader{bytes.NewReader(body)}} {
			got, err := Read(rd)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Logf("seed %d (%T): n %d m %d z %d, error %v", seed, rd, n, len(raw), z, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReadAllocations pins the allocations of a load to a constant: the
// builder's and the graph's arrays, the read buffer and the structs that
// hold them, however many edges the file has. (From 2 × 2¹⁶ edges on,
// Build's parallel layout adds a few per part, a count set by
// GOMAXPROCS, not by the edges.)
func TestReadAllocations(t *testing.T) {
	allocs := func(g *Graph) float64 {
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(randomGraph(1, 25, 80, 5)), allocs(randomGraph(2, 2000, 20000, 5))
	if small != large || large > 20 {
		t.Fatalf("a load of 80 edges makes %v allocations and one of 20 000 makes %v; want one constant ≤ 20", small, large)
	}
}

// FuzzRead feeds arbitrary bytes to Read. It must not panic; it may
// allocate no more than 64 KB, plus a constant per body byte, plus the
// 16 bytes per node the trusted header count sizes; and a body it accepts
// must give a graph that passes Validate and that Write then Read give
// back unchanged.
func FuzzRead(f *testing.F) {
	var paper, empty bytes.Buffer
	if err := buildPaperExample(f).Write(&paper); err != nil {
		f.Fatal(err)
	}
	if g, err := NewBuilder(4, 2).Build(); err != nil || g.Write(&empty) != nil {
		f.Fatal("empty graph", err)
	}
	edge := func(u, v uint32) rawEdge { return rawEdge{u, v, []uint32{0}, []float64{0.5}} }
	f.Add(paper.Bytes())
	f.Add(empty.Bytes())
	f.Add(paper.Bytes()[:paper.Len()-5])
	f.Add(encodeGraph(3, 2, 1, []rawEdge{edge(0, 1), edge(0, 1)}))
	f.Add(encodeGraph(3, 3, 1, []rawEdge{edge(2, 0), edge(0, 2), edge(1, 1)}))
	f.Fuzz(func(t *testing.T, body []byte) {
		n := 0
		if len(body) >= 12 {
			n = int(binary.LittleEndian.Uint32(body[8:12]))
		}
		// The header's node count is trusted and sizes 16 bytes of
		// offsets per node before any record is read, so a body of a few
		// bytes may ask for 32 GB; a fuzz worker cannot afford that.
		if n > 1<<16 {
			t.Skip("node count beyond the fuzz budget")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Read(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(body)+16*n); grew > limit {
			t.Fatalf("Read of %d bytes (n %d) allocated %d bytes, limit %d", len(body), n, grew, limit)
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var w1, w2 bytes.Buffer
		if err := g.Write(&w1); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("Read of Write's bytes: %v", err)
		}
		if err := g2.Write(&w2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, g2) || !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatal("Write then Read changed an accepted graph")
		}
	})
}

// TestWriteRefusesOversizedVector: a record counts its entries in 16
// bits, so Write refuses an edge with more rather than wrap the count and
// write a file Read would misparse.
func TestWriteRefusesOversizedVector(t *testing.T) {
	const nnz = math.MaxUint16 + 1
	b := NewBuilder(2, nnz)
	p := topic.Vector{Idx: make([]int32, nnz), Val: make([]float64, nnz)}
	for i := range p.Idx {
		p.Idx[i], p.Val[i] = int32(i), 0.5
	}
	if err := b.AddEdge(0, 1, p); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(io.Discard); err == nil || err.Error() != "graph: edge (0,1) has 65536 topic entries, more than a record holds" {
		t.Fatalf("Write of a 65536-entry vector: error %v", err)
	}
}
