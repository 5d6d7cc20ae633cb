package hom

import "math/bits"

// bitset is a fixed-capacity set of small non-negative integers; the
// word kernel (internal/bitvec) counts and iterates it.
type bitset []uint64

// fill makes b the set {0, …, n-1}; n must not exceed b's capacity.
func (b bitset) fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		b[len(b)-1] = 1<<r - 1
	}
}

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

// intersect replaces b with b ∩ o and reports whether b changed.
func (b bitset) intersect(o bitset) bool {
	changed := false
	for i := range b {
		nw := b[i] & o[i]
		if nw != b[i] {
			changed = true
			b[i] = nw
		}
	}
	return changed
}

// single reports whether b has exactly one member.
func (b bitset) single() bool {
	n := 0
	for _, w := range b {
		if n += bits.OnesCount64(w); n > 1 {
			return false
		}
	}
	return n == 1
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// nth returns the k-th smallest member (0-based), or -1 if the set has
// fewer than k+1 members.  Used by the importance sampler to draw a
// uniform member without materializing the set.
func (b bitset) nth(k int) int {
	for i, w := range b {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		for ; w != 0; w &^= w & -w {
			if k == 0 {
				return i*64 + bits.TrailingZeros64(w)
			}
			k--
		}
	}
	return -1
}

// first returns the smallest member, or -1 if empty.
func (b bitset) first() int {
	for i, w := range b {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
