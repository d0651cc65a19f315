package rrset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"oipa/internal/graph"
)

// MRR collection serialization. Sampling at the paper's θ = 10^6 is the
// dominant setup cost of an OIPA run (Table III reports it separately),
// and the samples are reusable across solvers, budgets and logistic
// parameters — everything except the graph and the campaign. The format
// (little endian):
//
//	magic   [8]byte "OIPAMRR1"
//	n       uint32   vertex count of the graph sampled from
//	m       uint64   edge count (integrity check only)
//	l       uint32   pieces
//	theta   uint32   samples
//	seed    uint64
//	roots   theta × uint32
//	offsets (theta·l+1) × uint64
//	nodes   len × uint32 (length from the final offset)
//
// Sets are written in canonical sample-major order (sample 0 piece 0,
// sample 0 piece 1, ..): the determinism contract makes set contents
// independent of shard count and worker schedule, so the serialized
// bytes are too. Loading materializes the sets into a single shard in
// the same canonical order.

var mrrMagic = [8]byte{'O', 'I', 'P', 'A', 'M', 'R', 'R', '1'}

// ErrBadMRRMagic is returned when a stream is not an MRR file.
var ErrBadMRRMagic = errors.New("rrset: bad magic (not an OIPA MRR file)")

// ErrGraphMismatch is returned when a collection is loaded against a
// graph whose shape differs from the one it was sampled on.
var ErrGraphMismatch = errors.New("rrset: collection was sampled on a different graph")

// Write serializes the collection. Multiplex-sampled collections are
// refused: the format records a single graph's shape, and a multiplex
// collection is only meaningful against the exact layer set it was
// sampled on.
func (m *MRRCollection) Write(w io.Writer) error {
	g := m.sub.g
	if g == nil {
		return fmt.Errorf("rrset: multiplex collections do not serialize")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(mrrMagic[:]); err != nil {
		return err
	}
	theta := m.Theta()
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(g.N()))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(g.M()))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(m.l))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(theta))
	binary.LittleEndian.PutUint64(hdr[20:28], m.seed)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var u32 [4]byte
	for _, r := range m.roots {
		binary.LittleEndian.PutUint32(u32[:], uint32(r))
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
	}
	// Canonical offsets: leading 0, then the running end offset of every
	// set in sample-major order.
	var u64 [8]byte
	if _, err := bw.Write(u64[:]); err != nil {
		return err
	}
	end := int64(0)
	for i := 0; i < theta; i++ {
		for j := 0; j < m.l; j++ {
			end += int64(len(m.Set(i, j)))
			binary.LittleEndian.PutUint64(u64[:], uint64(end))
			if _, err := bw.Write(u64[:]); err != nil {
				return err
			}
		}
	}
	for i := 0; i < theta; i++ {
		for j := 0; j < m.l; j++ {
			for _, v := range m.Set(i, j) {
				binary.LittleEndian.PutUint32(u32[:], uint32(v))
				if _, err := bw.Write(u32[:]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadMRR deserializes a collection and binds it to g, verifying that the
// graph shape matches the one recorded at sampling time. The sets are
// materialized into a single shard in canonical sample-major order; the
// loaded collection serves every query and estimator, but it carries no
// piece layouts, so it cannot be extended.
func ReadMRR(r io.Reader, g *graph.Graph) (*MRRCollection, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("rrset: reading magic: %w", err)
	}
	if got != mrrMagic {
		return nil, ErrBadMRRMagic
	}
	var hdr [28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("rrset: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	medges := binary.LittleEndian.Uint64(hdr[4:12])
	l := binary.LittleEndian.Uint32(hdr[12:16])
	theta := binary.LittleEndian.Uint32(hdr[16:20])
	seed := binary.LittleEndian.Uint64(hdr[20:28])
	if int(n) != g.N() || medges != uint64(g.M()) {
		return nil, ErrGraphMismatch
	}
	if l == 0 || theta == 0 {
		return nil, fmt.Errorf("rrset: corrupt header (l=%d, theta=%d)", l, theta)
	}
	m := newMRRCollection(&substrate{g: g, n: g.N()}, int(l), seed)
	m.roots = make([]int32, theta)
	var u32 [4]byte
	for i := range m.roots {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, fmt.Errorf("rrset: reading roots: %w", err)
		}
		v := int32(binary.LittleEndian.Uint32(u32[:]))
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("rrset: root %d outside graph", v)
		}
		m.roots[i] = v
	}
	offsets := make([]int64, int(theta)*int(l)+1)
	var u64 [8]byte
	prev := int64(-1)
	for i := range offsets {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, fmt.Errorf("rrset: reading offsets: %w", err)
		}
		off := int64(binary.LittleEndian.Uint64(u64[:]))
		if off < prev {
			return nil, fmt.Errorf("rrset: non-monotone offsets")
		}
		prev = off
		offsets[i] = off
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("rrset: first offset %d, want 0", offsets[0])
	}
	nodes := make([]int32, offsets[len(offsets)-1])
	for i := range nodes {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, fmt.Errorf("rrset: reading nodes: %w", err)
		}
		v := int32(binary.LittleEndian.Uint32(u32[:]))
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("rrset: RR member %d outside graph", v)
		}
		nodes[i] = v
	}
	m.st = packedStore(shard{nodes: nodes, offsets: offsets[1:]}, int(l))
	return m, nil
}

// Save writes the collection to a file path.
func (m *MRRCollection) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadMRR reads a collection from a file path, bound to g.
func LoadMRR(path string, g *graph.Graph) (*MRRCollection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMRR(f, g)
}
