package bitvec

import (
	"iter"
	"math/bits"
)

// And sets dst to dst ∧ src, word by word (src is at least as long).
func And(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// Or sets dst to dst ∨ src, word by word (src is at least as long), and
// reports whether src had a bit set.
func Or(dst, src []uint64) bool {
	src = src[:len(dst)]
	some := uint64(0)
	for i, w := range src {
		dst[i] |= w
		some |= w
	}
	return some != 0
}

// Count returns the number of set bits.
func Count(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountAndNot returns the number of bits set in a and clear in b (b is at
// least as long).
func CountAndNot(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w &^ b[i])
	}
	return n
}

// Each yields the indexes of the set bits, ascending.
func Each(ws []uint64) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i, w := range ws {
			for ; w != 0; w &= w - 1 {
				if !yield(i<<6 + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// Transpose writes into dst, whose rows are dstStride words apart, the
// transpose of the n × n bit matrix src, whose rows are srcStride words
// apart: bit u of dst's row v is bit v of src's row u.
func Transpose(dst []uint64, dstStride int, src []uint64, srcStride, n int) {
	clear(dst)
	words := (n + 63) / 64
	for u := 0; u < n; u++ {
		for v := range Each(src[u*srcStride:][:words]) {
			dst[v*dstStride+u>>6] |= 1 << (u & 63)
		}
	}
}
