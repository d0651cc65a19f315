package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest is a SHA-256 over n, z and every internal array of g, each
// prefixed with its length, for the bit-identity pins of the external
// test package (which can import the generator; this one cannot).
func Digest(g *Graph) string {
	h := sha256.New()
	var b []byte
	put := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	put(uint64(g.n))
	put(uint64(g.z))
	for _, a := range [][]int64{g.outOff, g.inOff, g.topicOff} {
		put(uint64(len(a)))
		for _, x := range a {
			put(uint64(x))
		}
	}
	for _, a := range [][]int32{g.outTo, g.outEdge, g.inFrom, g.inEdge, g.topicIdx, g.edgePos} {
		put(uint64(len(a)))
		for _, x := range a {
			put(uint64(uint32(x)))
		}
	}
	put(uint64(len(g.topicVal)))
	for _, x := range g.topicVal {
		put(math.Float64bits(x))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
