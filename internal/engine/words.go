package engine

import (
	"iter"
	"math/bits"
)

// The executor's word kernel.  A set of values of the universe is a
// []uint64 bitmap, 64 values a word: a row of a table laid out as rows
// (Table.rows), a row intersection (enumerate's cand), a column support or
// an allowed set of the semi-join prune.  The loops over them are these.

// andWords sets dst to dst ∧ src, word by word (src is at least as long).
func andWords(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// orWords sets dst to dst ∨ src, word by word (src is at least as long),
// and reports whether src had a bit set.
func orWords(dst, src []uint64) bool {
	src = src[:len(dst)]
	some := uint64(0)
	for i, w := range src {
		dst[i] |= w
		some |= w
	}
	return some != 0
}

// countWords returns the number of set bits.
func countWords(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// countAndNotWords returns the number of bits set in a and clear in b (b is
// at least as long).
func countAndNotWords(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w &^ b[i])
	}
	return n
}

// eachBit yields the indexes of the set bits, ascending.
func eachBit(ws []uint64) iter.Seq[int] {
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

// transposeRows writes into dst, whose rows are dstStride words apart, the
// transpose of the n × n bit matrix src, whose rows are srcStride words
// apart: bit u of dst's row v is bit v of src's row u.
func transposeRows(dst []uint64, dstStride int, src []uint64, srcStride, n int) {
	clear(dst)
	words := (n + 63) / 64
	for u := 0; u < n; u++ {
		for v := range eachBit(src[u*srcStride:][:words]) {
			dst[v*dstStride+u>>6] |= 1 << (u & 63)
		}
	}
}
