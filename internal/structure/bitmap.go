package structure

import "math/bits"

// Bitmap is a compressed set of non-negative row ids, stored roaring
// style in two levels: row >> 16 selects a chunk, and each chunk holds
// the low 16 bits of its members either as a sorted array container
// (while sparse) or as a packed 1024-word bitmap container (once dense).
// The crossover is arrayContainerCap members: below it the array form is
// smaller; at or above it the bitmap form unions 64 rows per word op.
//
// Bitmaps are the posting lists of the relation store, and do the three
// things a posting list is asked for — append, iterate, union: Add is
// amortized O(1) for the store's append pattern (row ids arrive strictly
// increasing), ForEach visits members in increasing order without
// materializing a slice, and UnionIntoWords ors a list into a flat word
// bitmap.  There is no intersection: the join executor joins on session
// table indexes, never on postings.  A Bitmap is single-writer (the
// owning Relation mutates it); any number of goroutines may read it
// between mutations.
type Bitmap struct {
	n    int
	keys []uint32 // chunk high bits, strictly increasing
	ctrs []container
}

// arrayContainerCap is the array→bitmap promotion threshold: a container
// holding this many members converts to the packed bitmap form.  4096
// uint16s occupy exactly as much memory as the 1024-word bitmap, so the
// array form is strictly smaller below the threshold.
const arrayContainerCap = 4096

// containerSpan is the number of row ids one container covers.
const containerSpan = 1 << 16

// container is one 64Ki-row chunk: exactly one of arr (sorted members'
// low 16 bits) or words (packed bitmap) is non-nil.
type container struct {
	arr   []uint16
	words []uint64
}

// add inserts low and reports whether it was new.  The store's append
// pattern inserts in increasing order, making the append fast path the
// common one; out-of-order inserts shift.
func (c *container) add(low uint16) bool {
	if c.words != nil {
		w, b := low>>6, uint64(1)<<(low&63)
		if c.words[w]&b != 0 {
			return false
		}
		c.words[w] |= b
		return true
	}
	if n := len(c.arr); n == 0 || c.arr[n-1] < low {
		c.arr = append(c.arr, low)
	} else {
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if c.arr[mid] < low {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < n && c.arr[lo] == low {
			return false
		}
		c.arr = append(c.arr, 0)
		copy(c.arr[lo+1:], c.arr[lo:])
		c.arr[lo] = low
	}
	if len(c.arr) >= arrayContainerCap {
		c.promote()
	}
	return true
}

// promote converts the array form to the packed bitmap form.
func (c *container) promote() {
	words := make([]uint64, containerSpan/64)
	for _, v := range c.arr {
		words[v>>6] |= 1 << (v & 63)
	}
	c.arr, c.words = nil, words
}

// Len returns the bitmap's cardinality.  A nil Bitmap is empty.
func (b *Bitmap) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// chunkAt returns the index of key in keys, or -1.
func (b *Bitmap) chunkAt(key uint32) int {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.keys) && b.keys[lo] == key {
		return lo
	}
	return -1
}

// Add inserts row and reports whether it was new.
func (b *Bitmap) Add(row int32) bool {
	key, low := uint32(row)>>16, uint16(row)
	// Fast path: the store appends strictly increasing rows, so the
	// target is almost always the last chunk (or a brand-new one).
	if n := len(b.keys); n > 0 && b.keys[n-1] == key {
		if b.ctrs[n-1].add(low) {
			b.n++
			return true
		}
		return false
	} else if n == 0 || b.keys[n-1] < key {
		b.keys = append(b.keys, key)
		b.ctrs = append(b.ctrs, container{arr: []uint16{low}})
		b.n++
		return true
	}
	ci := b.chunkAt(key)
	if ci < 0 {
		// Out-of-order insert into a missing middle chunk.
		lo := 0
		for lo < len(b.keys) && b.keys[lo] < key {
			lo++
		}
		b.keys = append(b.keys, 0)
		copy(b.keys[lo+1:], b.keys[lo:])
		b.keys[lo] = key
		b.ctrs = append(b.ctrs, container{})
		copy(b.ctrs[lo+1:], b.ctrs[lo:])
		b.ctrs[lo] = container{arr: []uint16{low}}
		b.n++
		return true
	}
	if b.ctrs[ci].add(low) {
		b.n++
		return true
	}
	return false
}

// ForEach visits every member in increasing order; fn returning false
// stops the iteration.
func (b *Bitmap) ForEach(fn func(row int32) bool) {
	if b == nil {
		return
	}
	for ci, key := range b.keys {
		base := int32(key) << 16
		c := &b.ctrs[ci]
		if c.words == nil {
			for _, v := range c.arr {
				if !fn(base | int32(v)) {
					return
				}
			}
			continue
		}
		for wi, w := range c.words {
			for w != 0 {
				j := bits.TrailingZeros64(w)
				w &^= 1 << j
				if !fn(base | int32(wi<<6|j)) {
					return
				}
			}
		}
	}
}

// UnionIntoWords sets, in the flat word bitmap dst (bit r = row r), the
// bit of every member — the word-at-a-time union the hom solver's
// candidate pivoting accumulates posting lists through.  dst must cover
// the full row range.
func (b *Bitmap) UnionIntoWords(dst []uint64) {
	if b == nil {
		return
	}
	for ci, key := range b.keys {
		base := int(key) << 10 // chunk start in words: key·2¹⁶/64
		c := &b.ctrs[ci]
		if c.words != nil {
			d := dst[base:]
			for wi, w := range c.words {
				if wi >= len(d) {
					break
				}
				d[wi] |= w
			}
			continue
		}
		for _, v := range c.arr {
			r := uint32(key)<<16 | uint32(v)
			dst[r>>6] |= 1 << (r & 63)
		}
	}
}

// clone returns a deep copy sharing nothing with b.
func (b *Bitmap) clone() *Bitmap {
	if b == nil {
		return nil
	}
	c := &Bitmap{n: b.n, keys: append([]uint32(nil), b.keys...), ctrs: make([]container, len(b.ctrs))}
	for i := range b.ctrs {
		if b.ctrs[i].words != nil {
			c.ctrs[i].words = append([]uint64(nil), b.ctrs[i].words...)
		} else {
			c.ctrs[i].arr = append([]uint16(nil), b.ctrs[i].arr...)
		}
	}
	return c
}
