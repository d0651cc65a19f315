package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// buildPaperExample constructs the running example of the paper (Fig. 1):
// five nodes a..e (0..4), two topics, edges
//
//	a->b <1,0>, b->c <1,0>, c->d <1,0>,
//	e->d <0,1>, d->c <0,1>, c->b <0,1>.
func buildPaperExample(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(5, 2)
	type e struct {
		u, v int32
		z    int32
	}
	for _, ed := range []e{
		{0, 1, 0}, {1, 2, 0}, {2, 3, 0},
		{4, 3, 1}, {3, 2, 1}, {2, 1, 1},
	} {
		if err := b.AddEdge(ed.u, ed.v, topic.SingleTopic(ed.z)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := buildPaperExample(t)
	if g.N() != 5 || g.M() != 6 || g.Z() != 2 {
		t.Fatalf("N/M/Z = %d/%d/%d", g.N(), g.M(), g.Z())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(2) != 2 { // c -> d and c -> b
		t.Fatalf("OutDegree(c) = %d, want 2", g.OutDegree(2))
	}
	if g.InDegree(3) != 2 { // c -> d and e -> d
		t.Fatalf("InDegree(d) = %d, want 2", g.InDegree(3))
	}
	if g.AvgDegree() != 6.0/5.0 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
	if g.AvgTopicNNZ() != 1 {
		t.Fatalf("AvgTopicNNZ = %v, want 1", g.AvgTopicNNZ())
	}
}

func TestOutNeighbors(t *testing.T) {
	g := buildPaperExample(t)
	tos, eids := g.OutNeighbors(2)
	if len(tos) != 2 || len(eids) != 2 {
		t.Fatalf("OutNeighbors(c) lengths %d/%d", len(tos), len(eids))
	}
	// Sorted by destination: c->b (1) then c->d (3).
	if tos[0] != 1 || tos[1] != 3 {
		t.Fatalf("OutNeighbors(c) = %v", tos)
	}
	// Edge probability vectors match the construction.
	if g.EdgeProb(eids[0]).At(1) != 1 { // c->b is topic z2
		t.Fatal("c->b edge vector wrong")
	}
	if g.EdgeProb(eids[1]).At(0) != 1 { // c->d is topic z1
		t.Fatal("c->d edge vector wrong")
	}
}

func TestInNeighborsMirrorsOut(t *testing.T) {
	// Property: on random graphs, (u in InNeighbors(v)) iff (v in
	// OutNeighbors(u)), with matching edge ids.
	f := func(seed uint64) bool {
		g := randomGraph(seed, 30, 120, 4)
		for v := int32(0); v < int32(g.N()); v++ {
			froms, eids := g.InNeighbors(v)
			for i, u := range froms {
				tos, oeids := g.OutNeighbors(u)
				found := false
				for j, w := range tos {
					if w == v && oeids[j] == eids[i] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		// Total in-degrees == total out-degrees == m.
		totalIn, totalOut := 0, 0
		for v := int32(0); v < int32(g.N()); v++ {
			totalIn += g.InDegree(v)
			totalOut += g.OutDegree(v)
		}
		return totalIn == g.M() && totalOut == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a random simple directed graph for property tests.
func randomGraph(seed uint64, n, m, z int) *Graph {
	r := xrand.New(seed)
	b := NewBuilder(n, z)
	seen := map[[2]int32]bool{}
	for b.M() < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		nnz := 1 + r.Intn(2)
		idx := r.Sample(z, nnz)
		// Sample returns unsorted; build a dense vector instead.
		dense := make([]float64, z)
		for _, zi := range idx {
			dense[zi] = r.Float64()
		}
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			panic(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	b := NewBuilder(3, 1)
	p := topic.SingleTopic(0)
	if err := b.AddEdge(0, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1, p); err != nil {
		t.Fatal(err) // duplicate detected at Build, not AddEdge
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge not rejected at Build")
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	b := NewBuilder(3, 2)
	if err := b.AddEdge(-1, 0, topic.SingleTopic(0)); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := b.AddEdge(0, 3, topic.SingleTopic(0)); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := b.AddEdge(0, 1, topic.SingleTopic(2)); err == nil {
		t.Fatal("out-of-range topic accepted")
	}
	bad := topic.Vector{Idx: []int32{0}, Val: []float64{1.5}}
	if err := b.AddEdge(0, 1, bad); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}

func TestPieceProbs(t *testing.T) {
	g := buildPaperExample(t)
	// Piece about topic z1 only: edges on z1 get probability 1, others 0.
	p1 := g.PieceProbs(topic.SingleTopic(0))
	p2 := g.PieceProbs(topic.SingleTopic(1))
	if len(p1) != g.M() || len(p2) != g.M() {
		t.Fatal("PieceProbs length mismatch")
	}
	ones1, ones2 := 0, 0
	for eid := 0; eid < g.M(); eid++ {
		if p1[eid] == 1 {
			ones1++
		}
		if p2[eid] == 1 {
			ones2++
		}
		if p1[eid]+p2[eid] != 1 {
			t.Fatalf("edge %d covered by neither or both pieces", eid)
		}
	}
	if ones1 != 3 || ones2 != 3 {
		t.Fatalf("piece edge counts %d/%d, want 3/3", ones1, ones2)
	}
	// A mixed piece interpolates.
	mixed := topic.FromDense([]float64{0.25, 0.75})
	pm := g.PieceProbs(mixed)
	for eid := 0; eid < g.M(); eid++ {
		want := 0.25*p1[eid] + 0.75*p2[eid]
		if diff := pm[eid] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("mixed piece prob edge %d = %v, want %v", eid, pm[eid], want)
		}
	}
}

func TestEdgeEndpoints(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 20, 60, 3)
		for u := int32(0); u < int32(g.N()); u++ {
			tos, eids := g.OutNeighbors(u)
			for i := range tos {
				fu, fv := g.EdgeEndpoints(eids[i])
				if fu != u || fv != tos[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeProbMatchesBuilderVectors pins the one copy of the edge topic
// vectors the graph keeps (flat, in reverse-CSR order): on random
// builders — edges added in random order, some with empty vectors —
// EdgeProb of each edge is the vector AddEdge was given for its (u, v),
// PieceProbs is a dot product with those vectors bit for bit, and
// Write → Read → Write is a byte-level fixed point.
func TestEdgeProbMatchesBuilderVectors(t *testing.T) {
	f := func(seed uint64) bool {
		const n, m, z = 30, 150, 6
		r := xrand.New(seed)
		b := NewBuilder(n, z)
		given := map[[2]int32]topic.Vector{}
		for b.M() < m {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if _, dup := given[[2]int32{u, v}]; dup {
				continue
			}
			dense := make([]float64, z)
			for k := r.Intn(4); k > 0; k-- {
				dense[r.Intn(z)] = r.Float64()
			}
			p := topic.FromDense(dense)
			given[[2]int32{u, v}] = p
			if err := b.AddEdge(u, v, p); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		pieces := []topic.Vector{topic.SingleTopic(2), topic.FromDense([]float64{0.1, 0, 0.3, 0.2, 0, 0.4}), {}}
		probs := make([][]float64, len(pieces))
		for i, piece := range pieces {
			probs[i] = g.PieceProbs(piece)
		}
		nnz := 0
		for eid := int32(0); int(eid) < g.M(); eid++ {
			u, v := g.EdgeEndpoints(eid)
			want, got := given[[2]int32{u, v}], g.EdgeProb(eid)
			if !got.Equal(want) {
				t.Logf("seed %d edge %d (%d,%d): EdgeProb %+v, AddEdge gave %+v", seed, eid, u, v, got, want)
				return false
			}
			nnz += want.NNZ()
			for i, piece := range pieces {
				if pp := probs[i][eid]; math.Float64bits(pp) != math.Float64bits(clamp01(piece.Dot(want))) {
					t.Logf("seed %d edge %d: PieceProbs %v, dot %v", seed, eid, pp, piece.Dot(want))
					return false
				}
			}
		}
		if g.AvgTopicNNZ() != float64(nnz)/float64(m) {
			return false
		}
		var w1, w2 bytes.Buffer
		if err := g.Write(&w1); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.Write(&w2); err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(w1.Bytes(), w2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOrderIndependence(t *testing.T) {
	// The same edge set added in different orders yields identical graphs.
	mk := func(perm []int) *Graph {
		type e struct {
			u, v int32
			z    int32
		}
		edges := []e{{0, 1, 0}, {1, 2, 1}, {2, 0, 0}, {0, 2, 1}}
		b := NewBuilder(3, 2)
		for _, i := range perm {
			ed := edges[i]
			if err := b.AddEdge(ed.u, ed.v, topic.SingleTopic(ed.z)); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1 := mk([]int{0, 1, 2, 3})
	g2 := mk([]int{3, 2, 1, 0})
	var buf1, buf2 bytes.Buffer
	if err := g1.Write(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := g2.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("graphs built from permuted edge lists serialize differently")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 25, 80, 5)
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			return false
		}
		g2, err := Read(&buf)
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() || g2.Z() != g.Z() {
			return false
		}
		// Structural equality via re-serialization.
		var buf2 bytes.Buffer
		if err := g2.Write(&buf2); err != nil {
			return false
		}
		var buf3 bytes.Buffer
		if err := g.Write(&buf3); err != nil {
			return false
		}
		return bytes.Equal(buf2.Bytes(), buf3.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Correct magic but truncated header.
	if _, err := Read(bytes.NewReader(magic[:])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestReadRejectsOversizedCounts: a header whose vertex or topic count
// does not fit an int32 is refused, not wrapped to a negative count.
func TestReadRejectsOversizedCounts(t *testing.T) {
	header := func(n, z uint32) []byte {
		b := append([]byte(nil), magic[:]...)
		b = binary.LittleEndian.AppendUint32(b, n)
		b = binary.LittleEndian.AppendUint64(b, 0)
		return binary.LittleEndian.AppendUint32(b, z)
	}
	for _, tc := range []struct {
		name string
		n, z uint32
		want string
	}{
		{"topics 2^32-1", 4, math.MaxUint32, "topic count"},
		{"topics 2^31", 4, 1 << 31, "topic count"},
		{"vertices 2^32-1", math.MaxUint32, 2, "vertex count"},
	} {
		_, err := Read(bytes.NewReader(header(tc.n, tc.z)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming the %s", tc.name, err, tc.want)
		}
	}
	g, err := Read(bytes.NewReader(header(4, 2)))
	if err != nil || g.N() != 4 || g.Z() != 2 {
		t.Fatalf("a 4-node 2-topic header: graph %v, error %v", g, err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := buildPaperExample(t)
	path := t.TempDir() + "/g.bin"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("loaded graph differs")
	}
}

func TestEmptyGraph(t *testing.T) {
	b := NewBuilder(4, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("empty graph N/M = %d/%d", g.N(), g.M())
	}
	if g.OutDegree(0) != 0 || g.InDegree(3) != 0 {
		t.Fatal("empty graph has degrees")
	}
	if g.AvgTopicNNZ() != 0 {
		t.Fatal("empty graph AvgTopicNNZ non-zero")
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := xrand.New(7)
	const n, m = 10000, 50000
	type edge struct {
		u, v int32
		p    topic.Vector
	}
	edges := make([]edge, 0, m)
	seen := map[[2]int32]bool{}
	for len(edges) < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		edges = append(edges, edge{u, v, topic.SingleTopic(int32(r.Intn(5)))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n, 5)
		for _, e := range edges {
			if err := bld.AddEdge(e.u, e.v, e.p); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
