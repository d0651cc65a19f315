// Package bitset provides dense bitsets and epoch-stamped scratch maps.
//
// Both structures exist to make the hot loops of RR-set generation and
// bound evaluation allocation-free: a reverse BFS needs a "visited" set per
// sample and a bound evaluation needs a "covered pieces" counter per sample
// root, and allocating or clearing a fresh map for each of the millions of
// such operations would dominate runtime. An epoch stamp turns clearing
// into a single integer increment.
package bitset

// Bits is a fixed-capacity dense bitset over [0, n).
type Bits struct {
	words []uint64
	n     int
}

// New returns a bitset with capacity for n bits, all zero.
func New(n int) *Bits {
	return &Bits{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (b *Bits) Len() int { return b.n }

// Set sets bit i.
func (b *Bits) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (b *Bits) Test(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Reset zeroes the whole set.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += popcount(w)
	}
	return c
}

// popcount returns the number of set bits in w (SWAR implementation so the
// package stays dependency-free; the compiler recognizes the pattern).
func popcount(w uint64) int {
	w -= (w >> 1) & 0x5555555555555555
	w = (w & 0x3333333333333333) + ((w >> 2) & 0x3333333333333333)
	w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((w * 0x0101010101010101) >> 56)
}

// Stamp is an epoch-stamped "visited" set over [0, n). Marking is O(1) and
// resetting the entire structure is O(1) (increment the epoch), at the cost
// of one uint32 per element. Epoch 0 is never a valid mark, and the epoch
// counter wrapping around is handled by a full clear.
type Stamp struct {
	marks []uint32
	epoch uint32
}

// NewStamp returns a stamp set with capacity n.
func NewStamp(n int) *Stamp {
	return &Stamp{marks: make([]uint32, n), epoch: 1}
}

// Len returns the capacity.
func (s *Stamp) Len() int { return len(s.marks) }

// Mark marks element i in the current epoch.
func (s *Stamp) Mark(i int) { s.marks[i] = s.epoch }

// Marked reports whether element i is marked in the current epoch.
func (s *Stamp) Marked(i int) bool { return s.marks[i] == s.epoch }

// MarkOnce marks i and reports whether it was previously unmarked.
func (s *Stamp) MarkOnce(i int) bool {
	if s.marks[i] == s.epoch {
		return false
	}
	s.marks[i] = s.epoch
	return true
}

// Reset invalidates all marks in O(1).
func (s *Stamp) Reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear the backing array and restart
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
}

// Counter is an epoch-stamped counter map over [0, n): each element holds a
// small non-negative count that conceptually resets to zero every epoch.
// Used to track how many campaign pieces cover each MRR sample root during
// plan evaluation.
type Counter struct {
	counts []uint16
	marks  []uint32
	epoch  uint32
}

// NewCounter returns a counter map with capacity n.
func NewCounter(n int) *Counter {
	return &Counter{counts: make([]uint16, n), marks: make([]uint32, n), epoch: 1}
}

// Len returns the capacity.
func (c *Counter) Len() int { return len(c.counts) }

// Get returns the current-epoch count for element i.
func (c *Counter) Get(i int) int {
	if c.marks[i] != c.epoch {
		return 0
	}
	return int(c.counts[i])
}

// Add increments element i by one and returns the new count.
func (c *Counter) Add(i int) int {
	if c.marks[i] != c.epoch {
		c.marks[i] = c.epoch
		c.counts[i] = 1
		return 1
	}
	c.counts[i]++
	return int(c.counts[i])
}

// Set assigns count v to element i.
func (c *Counter) Set(i, v int) {
	c.marks[i] = c.epoch
	c.counts[i] = uint16(v)
}

// Reset zeroes all counts in O(1).
func (c *Counter) Reset() {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.marks {
			c.marks[i] = 0
		}
		c.epoch = 1
	}
}
