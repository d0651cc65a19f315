package graph

import (
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
//
// The header's n is trusted: it sizes 16 bytes of offsets per node
// before any record is read. Its m is not: it must fit an int32 edge id,
// and no array is sized from it until bytes back it. Read refuses an m
// whose 10-byte minimum records would overrun what the stream holds when
// it can tell (Load knows the file size; a reader with a Len method
// tells it), and otherwise grows its arrays as records arrive.

var magic = [8]byte{'O', 'I', 'P', 'A', 'G', 'R', 'F', '1'}

// ErrBadMagic is returned when a stream does not start with the graph
// format magic bytes.
var ErrBadMagic = errors.New("graph: bad magic (not an OIPA graph file)")

const (
	headerSize = 8 + 16
	recordHead = 10 // from, to, nnz
	entrySize  = 12 // topicIdx, prob
	// blockSize is the I/O buffer of Write and Read. It holds the largest
	// record, 10 + 65535·12 bytes, so each record is encoded into or
	// decoded from one contiguous block.
	blockSize = 1 << 20
)

// Write serializes the graph to w.
func (g *Graph) Write(w io.Writer) error {
	size := int64(headerSize) + recordHead*int64(g.M()) + entrySize*int64(len(g.topicIdx))
	buf := make([]byte, 0, min(size, blockSize))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.M()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.z))
	for u := int32(0); u < g.n; u++ {
		tos, eids := g.OutNeighbors(u)
		for i, v := range tos {
			p := g.EdgeProb(eids[i])
			if p.NNZ() > math.MaxUint16 {
				return fmt.Errorf("graph: edge (%d,%d) has %d topic entries, more than a record holds", u, v, p.NNZ())
			}
			if len(buf)+recordHead+entrySize*p.NNZ() > cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(p.NNZ()))
			for j, z := range p.Idx {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(z))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Val[j]))
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// Read deserializes a graph written by Write and validates it. Each
// record is decoded from the read buffer straight into a Builder's flat
// arrays; zero probabilities are dropped, as topic.NewVector drops them.
func Read(r io.Reader) (*Graph, error) {
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	return read(r, size)
}

// read is Read of a stream that holds size bytes, or an unknown number
// when size < 0.
func read(r io.Reader, size int64) (*Graph, error) {
	br := newBlockReader(r, size)
	if got, err := br.next(len(magic)); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	} else if [8]byte(got) != magic {
		return nil, ErrBadMagic
	}
	hdr, err := br.next(16)
	if err != nil {
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
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: edge count %d too large", m)
	}
	b := NewBuilder(int(n), int(z))
	if size >= 0 {
		left := size - headerSize
		if int64(m)*recordHead > left {
			return nil, fmt.Errorf("graph: edge count %d needs at least %d bytes of records, %d follow the header",
				m, int64(m)*recordHead, left)
		}
		entries := (left - int64(m)*recordHead) / entrySize
		b.from, b.to = make([]int32, 0, m), make([]int32, 0, m)
		b.off = append(make([]int64, 0, m+1), 0)
		b.idx, b.val = make([]int32, 0, entries), make([]float64, 0, entries)
	}
	for i := 0; i < int(m); i++ {
		rec, err := br.next(recordHead)
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		from := int32(binary.LittleEndian.Uint32(rec[0:4]))
		to := int32(binary.LittleEndian.Uint32(rec[4:8]))
		nnz := int(binary.LittleEndian.Uint16(rec[8:10]))
		ents, err := br.next(entrySize * nnz)
		if err == io.ErrUnexpectedEOF && br.short%entrySize == 0 {
			err = io.EOF // entry br.short/entrySize is missing whole
		}
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d entry %d: %w", i, br.short/entrySize, err)
		}
		prev := int32(-1)
		for j := 0; j < len(ents); j += entrySize {
			z := int32(binary.LittleEndian.Uint32(ents[j:]))
			p := math.Float64frombits(binary.LittleEndian.Uint64(ents[j+4:]))
			if z <= prev || !(p >= 0) {
				return nil, fmt.Errorf("graph: edge %d: %w", i, entriesError(ents))
			}
			prev = z
			if p != 0 {
				b.idx = append(b.idx, z)
				b.val = append(b.val, p)
			}
		}
		if err := b.checkNodes(from, to); err != nil {
			return nil, err
		}
		if err := b.commit(from, to); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// entriesError is topic.NewVector's refusal of a record's entries, which
// the decoding loop found out of order, negative or NaN.
func entriesError(ents []byte) error {
	idx := make([]int32, len(ents)/entrySize)
	val := make([]float64, len(idx))
	for j := range idx {
		idx[j] = int32(binary.LittleEndian.Uint32(ents[entrySize*j:]))
		val[j] = math.Float64frombits(binary.LittleEndian.Uint64(ents[entrySize*j+4:]))
	}
	_, err := topic.NewVector(idx, val)
	return err
}

// blockReader hands out the stream in contiguous pieces of one buffer.
type blockReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int   // buf[lo:hi] is read and not yet handed out
	left   int64 // bytes r holds past buf[:hi], or < 0 if unknown
	err    error // why r stopped, once it has
	short  int   // bytes the stream still held when next last failed
}

func newBlockReader(r io.Reader, size int64) *blockReader {
	n := int64(blockSize)
	if size >= 0 {
		n = min(n, size)
	}
	return &blockReader{r: r, buf: make([]byte, n), left: size}
}

// next returns the stream's next k bytes (k ≤ blockSize), valid until the
// following call. Short of k bytes it records how many there were in
// br.short and, as io.ReadFull does, fails with io.EOF when there were
// none and io.ErrUnexpectedEOF when there were some.
func (br *blockReader) next(k int) ([]byte, error) {
	for br.hi-br.lo < k && br.err == nil {
		if br.left == 0 {
			br.err = io.EOF
			break
		}
		if br.lo > 0 {
			br.hi = copy(br.buf, br.buf[br.lo:br.hi])
			br.lo = 0
		}
		br.fill()
	}
	if got := br.hi - br.lo; got < k {
		br.short = got
		if br.err != io.EOF {
			return nil, br.err
		}
		if got == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := br.buf[br.lo : br.lo+k]
	br.lo += k
	return b, nil
}

// fill reads once into the free tail of buf, giving up with
// io.ErrNoProgress, as bufio does, when r keeps returning nothing.
func (br *blockReader) fill() {
	for i := 0; i < 100; i++ {
		n, err := br.r.Read(br.buf[br.hi:])
		br.hi += n
		if br.left >= 0 {
			br.left = max(br.left-int64(n), 0)
		}
		if n > 0 || err != nil {
			br.err = err
			return
		}
	}
	br.err = io.ErrNoProgress
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
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	return read(f, size)
}
