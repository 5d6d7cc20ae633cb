package structure

import "maps"

// TupleSet is a deduplicating set of fixed-width int tuples.  Tuples whose
// values fit the packed budget (64/width bits per value) are keyed as
// uint64 in a map; oversized values spill to a byte-string-keyed map that
// is allocated lazily and, in practice, never.  It backs the per-relation
// dedup sets of the columnar store and the projection dedup of the
// engine's constraint materializer.
//
// The zero value is not usable; construct with NewTupleSet.  A TupleSet
// is not safe for concurrent mutation.
type TupleSet struct {
	width  int
	shift  uint // bits per packed value; 0 disables packing (width > 64)
	packed map[uint64]struct{}
	sk     map[string]struct{} // lazily allocated spill path
	n      int
}

// NewTupleSet returns an empty set of width-ary tuples.
func NewTupleSet(width int) *TupleSet { return NewTupleSetSized(width, 0) }

// NewTupleSetSized is NewTupleSet with capacity for n tuples reserved up
// front, so bulk insertion skips the map's growth.  n is a hint; the set
// still grows past it.
func NewTupleSetSized(width, n int) *TupleSet {
	width = max(width, 0)
	ts := &TupleSet{width: width}
	if width > 0 && width <= 64 {
		ts.shift = uint(64 / width)
		ts.packed = make(map[uint64]struct{}, n)
	}
	return ts
}

// Len returns the number of distinct tuples in the set.
func (ts *TupleSet) Len() int { return ts.n }

// pack returns the uint64 key of t, or ok=false when some value does not
// fit the per-value bit budget (or packing is disabled).
func (ts *TupleSet) pack(t []int) (uint64, bool) {
	if ts.shift == 0 {
		return 0, false
	}
	var k uint64
	for _, v := range t {
		if v < 0 || (ts.shift < 64 && uint64(v) >= 1<<ts.shift) {
			return 0, false
		}
		k = k<<ts.shift | uint64(v)
	}
	return k, true
}

// TupleKey encodes vals as an exact byte-string map key, 8 bytes
// little-endian per value.  buf is reused scratch (pass nil to
// allocate); the returned string is always a fresh copy, as map keys
// must be.  This is the one shared int-vector key encoder — the tuple
// set spill path, the executor's wide-bag spill keys, answer dedup, and
// constraint-scheme identities all use it.
func TupleKey(vals []int, buf []byte) string {
	buf = buf[:0]
	for _, v := range vals {
		u := uint64(v)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(buf)
}

// TupleKeyDecode inverts TupleKey into out (whose length selects how
// many values to decode).
func TupleKeyDecode(key string, out []int) {
	for i := range out {
		o := 8 * i
		out[i] = int(uint64(key[o]) | uint64(key[o+1])<<8 | uint64(key[o+2])<<16 | uint64(key[o+3])<<24 |
			uint64(key[o+4])<<32 | uint64(key[o+5])<<40 | uint64(key[o+6])<<48 | uint64(key[o+7])<<56)
	}
}

// Add inserts t and reports whether it was absent.  The empty tuple
// (width 0) is a single distinct value.
func (ts *TupleSet) Add(t []int) bool {
	if ts.width == 0 {
		if ts.n == 0 {
			ts.n = 1
			return true
		}
		return false
	}
	if k, ok := ts.pack(t); ok {
		if _, dup := ts.packed[k]; dup {
			return false
		}
		ts.packed[k] = struct{}{}
		ts.n++
		return true
	}
	if ts.sk == nil {
		ts.sk = make(map[string]struct{})
	}
	k := TupleKey(t, nil)
	if _, dup := ts.sk[k]; dup {
		return false
	}
	ts.sk[k] = struct{}{}
	ts.n++
	return true
}

// Contains reports whether t is in the set.
func (ts *TupleSet) Contains(t []int) bool {
	if ts.width == 0 {
		return ts.n > 0
	}
	if k, ok := ts.pack(t); ok {
		_, present := ts.packed[k]
		return present
	}
	_, present := ts.sk[TupleKey(t, nil)]
	return present
}

// clone returns a deep copy of the set.
func (ts *TupleSet) clone() *TupleSet {
	c := *ts
	c.packed, c.sk = maps.Clone(ts.packed), maps.Clone(ts.sk)
	return &c
}
