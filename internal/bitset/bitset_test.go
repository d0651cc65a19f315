package bitset

import (
	"testing"
	"testing/quick"

	"oipa/internal/xrand"
)

func TestBitsBasic(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Reset()
	if got := b.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d, want 0", got)
	}
}

func TestBitsMatchesMap(t *testing.T) {
	// Property: a random sequence of Set/Test operations agrees with a
	// reference map implementation.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(300)
		b := New(n)
		ref := make(map[int]bool)
		for op := 0; op < 500; op++ {
			i := r.Intn(n)
			switch r.Intn(2) {
			case 0:
				b.Set(i)
				ref[i] = true
			case 1:
				if b.Test(i) != ref[i] {
					return false
				}
			}
		}
		return b.Count() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPopcount(t *testing.T) {
	cases := map[uint64]int{
		0:                  0,
		1:                  1,
		0xffffffffffffffff: 64,
		0x8000000000000001: 2,
		0xaaaaaaaaaaaaaaaa: 32,
	}
	for w, want := range cases {
		if got := popcount(w); got != want {
			t.Fatalf("popcount(%#x) = %d, want %d", w, got, want)
		}
	}
}

func TestStampBasic(t *testing.T) {
	s := NewStamp(10)
	if s.Marked(3) {
		t.Fatal("fresh stamp has mark")
	}
	s.Mark(3)
	if !s.Marked(3) {
		t.Fatal("Mark did not mark")
	}
	if s.MarkOnce(3) {
		t.Fatal("MarkOnce returned true for already-marked element")
	}
	if !s.MarkOnce(4) {
		t.Fatal("MarkOnce returned false for unmarked element")
	}
	s.Reset()
	if s.Marked(3) || s.Marked(4) {
		t.Fatal("marks survived Reset")
	}
}

func TestStampEpochWraparound(t *testing.T) {
	s := NewStamp(4)
	s.epoch = ^uint32(0) // next Reset wraps
	s.Mark(2)
	if !s.Marked(2) {
		t.Fatal("mark lost before wrap")
	}
	s.Reset()
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	for i := 0; i < 4; i++ {
		if s.Marked(i) {
			t.Fatalf("element %d marked after wraparound reset", i)
		}
	}
}

func TestCounterBasic(t *testing.T) {
	c := NewCounter(5)
	if c.Get(0) != 0 {
		t.Fatal("fresh counter non-zero")
	}
	if got := c.Add(0); got != 1 {
		t.Fatalf("first Add = %d, want 1", got)
	}
	if got := c.Add(0); got != 2 {
		t.Fatalf("second Add = %d, want 2", got)
	}
	c.Set(1, 7)
	if c.Get(1) != 7 {
		t.Fatalf("Get after Set = %d, want 7", c.Get(1))
	}
	c.Reset()
	if c.Get(0) != 0 || c.Get(1) != 0 {
		t.Fatal("counts survived Reset")
	}
	if got := c.Add(0); got != 1 {
		t.Fatalf("Add after Reset = %d, want 1", got)
	}
}

func TestCounterEpochWraparound(t *testing.T) {
	c := NewCounter(3)
	c.epoch = ^uint32(0)
	c.Add(1)
	c.Reset()
	if c.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", c.epoch)
	}
	if c.Get(1) != 0 {
		t.Fatal("count survived wraparound reset")
	}
}

func TestCounterMatchesMap(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(100)
		c := NewCounter(n)
		ref := make(map[int]int)
		for op := 0; op < 400; op++ {
			i := r.Intn(n)
			switch r.Intn(4) {
			case 0:
				c.Add(i)
				ref[i]++
			case 1:
				v := r.Intn(100)
				c.Set(i, v)
				ref[i] = v
			case 2:
				if c.Get(i) != ref[i] {
					return false
				}
			case 3:
				if r.Intn(10) == 0 { // occasional reset
					c.Reset()
					ref = make(map[int]int)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStampResetAndMark(b *testing.B) {
	s := NewStamp(100000)
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Mark(i % 100000)
	}
}
