package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"oipa/internal/topic"
)

// Binary graph serialization. Format (little endian):
//
//	magic   [8]byte  "OIPAGRF1"
//	n       uint32
//	m       uint64
//	z       uint32
//	edges   m records of:
//	    from uint32
//	    to   uint32
//	    nnz  uint16
//	    nnz pairs of (topicIdx uint32, prob float64)
//
// The format stores the edge list rather than the CSR arrays so the file
// stays valid across internal representation changes; Build reconstructs
// the CSR on load.

var magic = [8]byte{'O', 'I', 'P', 'A', 'G', 'R', 'F', '1'}

// ErrBadMagic is returned when a stream does not start with the graph
// format magic bytes.
var ErrBadMagic = errors.New("graph: bad magic (not an OIPA graph file)")

// Write serializes the graph to w.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(g.n))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(g.M()))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(g.z))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var scratch [18]byte
	for u := int32(0); u < g.n; u++ {
		tos, eids := g.OutNeighbors(u)
		for i, v := range tos {
			p := g.EdgeProb(eids[i])
			binary.LittleEndian.PutUint32(scratch[0:4], uint32(u))
			binary.LittleEndian.PutUint32(scratch[4:8], uint32(v))
			binary.LittleEndian.PutUint16(scratch[8:10], uint16(p.NNZ()))
			if _, err := bw.Write(scratch[0:10]); err != nil {
				return err
			}
			for j := range p.Idx {
				binary.LittleEndian.PutUint32(scratch[0:4], uint32(p.Idx[j]))
				binary.LittleEndian.PutUint64(scratch[4:12], math.Float64bits(p.Val[j]))
				if _, err := bw.Write(scratch[0:12]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a graph written by Write and validates it.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if got != magic {
		return nil, ErrBadMagic
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	m := binary.LittleEndian.Uint64(hdr[4:12])
	z := binary.LittleEndian.Uint32(hdr[12:16])
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d too large", n)
	}
	if z > math.MaxInt32 {
		return nil, fmt.Errorf("graph: topic count %d too large", z)
	}
	b := NewBuilder(int(n), int(z))
	var scratch [12]byte
	for i := uint64(0); i < m; i++ {
		if _, err := io.ReadFull(br, scratch[0:10]); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		from := int32(binary.LittleEndian.Uint32(scratch[0:4]))
		to := int32(binary.LittleEndian.Uint32(scratch[4:8]))
		nnz := int(binary.LittleEndian.Uint16(scratch[8:10]))
		idx := make([]int32, nnz)
		val := make([]float64, nnz)
		for j := 0; j < nnz; j++ {
			if _, err := io.ReadFull(br, scratch[0:12]); err != nil {
				return nil, fmt.Errorf("graph: reading edge %d entry %d: %w", i, j, err)
			}
			idx[j] = int32(binary.LittleEndian.Uint32(scratch[0:4]))
			val[j] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[4:12]))
		}
		p, err := topic.NewVector(idx, val)
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		if err := b.AddEdge(from, to, p); err != nil {
			return nil, err
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Save writes the graph to a file path.
func (g *Graph) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a graph from a file path.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
