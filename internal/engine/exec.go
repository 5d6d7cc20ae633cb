package engine

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/cache"
	"repro/internal/structure"
)

// The executor runs the join-count dynamic program over a compiled
// component.  Node tables map bag assignments to the number of extensions
// over the subtree's variables; children merge by grouping on shared bag
// variables; bag assignments are enumerated by joining the local
// constraint tables along a precomputed bind order, each table entered by
// the already-bound part of its scope: through its rows where it has
// them, through a prefix index on the packed bound values otherwise.
//
// The work is split across three moments:
//
//   - compile time (plan_fpt.go): per node, the scope→bag position maps,
//     the locally unconstrained ("free") bag positions, and the child
//     projection index pairs — everything derivable from the formula;
//   - bind time (newExecPlan, once per component and session): the
//     constraint bind order per node (smallest table first, then maximal
//     bound-prefix overlap), the bound/free split of every scope, and the
//     rows or prefix hash index each step enters its table by —
//     everything derivable from the formula plus the tables;
//   - run time (joinCount, projectKeys, and a delta term's run alike):
//     per node, first a flat program of ops, one per bind depth, each of
//     a kind fixed before the first binding (program: the steps' scans,
//     row binds, bit tests, index probes and tuple scans, then a free
//     driver or a domain fill per free position, or the tail with its
//     emission mode and gather), carrying the child-group lookups due
//     after it and the existence cut; then one loop (enumerate) with a
//     cursor and a running weight per depth runs it — row
//     intersections, index probes and accumulation, no closure call per
//     binding — on the caller's goroutine: a request is the unit of
//     parallelism.
//
// Three representation choices make this the hot path's fast path:
//
//   - bag assignments are packed into uint64 keys (⌈log₂ |B|⌉ bits per
//     variable) whenever they fit, spilling to byte-string keys only for
//     wide bags;
//   - extension counts are int64 until an addition or multiplication
//     would overflow, then fall back to big.Int per entry;
//   - a table has one of two layouts, fixed when it is built: tuples, or
//     — a width-2 table that fits rows: |B| ≥ 64 (rowsMinDom: below it a
//     row is a fraction of a word and a flat key set is not word-aligned
//     rows) and |B|·⌈|B|/64⌉ ≤ 5·rows (structure.BitRowsFit, the store's
//     and the hom solver's rule) — a bit matrix over the universe
//     (Table.rows: row u = the values beside u).  A plain binary atom
//     over a relation that keeps rows is a view of the store's own
//     (Relation.BitRows, at the store's stride), in a cold count and in a
//     delta run (live tables) alike; predicate tables, and the prune's
//     copies of tables on rows, are built as rows.  Every other table is
//     tuples.  A step over rows scans the non-empty rows, binds a
//     position from a row intersection or tests a bit, and builds no
//     index.  Where a node's last binder binds one position v from rows,
//     the end of the bind order is one intersection per bound prefix,
//     emitted whole as the tail's mode says (opTail).

// packedKeyBudget is the number of key bits available before the packed
// representation spills to strings.  Nothing outside the package's own
// tests (export_test.go) writes it: they force the spill path on small
// instances.
var packedKeyBudget = 64

// keyCodec packs fixed-width assignments of values in [0, domSize) into
// uint64 keys, or marks the width as spilled.
type keyCodec struct {
	bits   uint
	width  int
	packed bool
}

func newKeyCodec(domSize, width int) keyCodec {
	b := uint(bits.Len(uint(domSize - 1)))
	if b == 0 {
		b = 1
	}
	return keyCodec{bits: b, width: width, packed: width*int(b) <= packedKeyBudget}
}

func (c keyCodec) pack(vals []int) uint64 {
	var k uint64
	for _, v := range vals {
		k = k<<c.bits | uint64(v)
	}
	return k
}

func (c keyCodec) unpack(key uint64, out []int) {
	mask := uint64(1)<<c.bits - 1
	for i := c.width - 1; i >= 0; i-- {
		out[i] = int(key & mask)
		key >>= c.bits
	}
}

// spillKey is the byte-string encoding used when a bag does not fit the
// packed budget: the shared structure.TupleKey codec.  buf is reused
// between calls; the returned string is a fresh allocation (it must be,
// to serve as a map key).
func spillKey(vals []int, buf []byte) string { return structure.TupleKey(vals, buf) }

func spillDecode(key string, out []int) { structure.TupleKeyDecode(key, out) }

// wnum is a non-negative extension count: int64 while it fits, big.Int
// after the first overflow.  The zero value is 0.
type wnum struct {
	lo int64    // valid iff b == nil
	b  *big.Int // nil in the fast path
}

func (w wnum) isZero() bool {
	if w.b != nil {
		return w.b.Sign() == 0
	}
	return w.lo == 0
}

func (w wnum) toBig() *big.Int {
	if w.b != nil {
		return w.b
	}
	return big.NewInt(w.lo)
}

// addInto accumulates w into acc (mutating acc, which the caller owns).
func (w wnum) addInto(acc *big.Int) {
	if w.b != nil {
		acc.Add(acc, w.b)
		return
	}
	var t big.Int
	t.SetInt64(w.lo)
	acc.Add(acc, &t)
}

func addW(a, b wnum) wnum {
	if a.b == nil && b.b == nil {
		s := a.lo + b.lo
		if s >= 0 { // both operands are non-negative: wrap ⇒ negative
			return wnum{lo: s}
		}
	}
	return wnum{b: new(big.Int).Add(a.toBig(), b.toBig())}
}

func mulW(a, b wnum) wnum {
	if a.b == nil && b.b == nil {
		hi, lo := bits.Mul64(uint64(a.lo), uint64(b.lo))
		if hi == 0 && lo <= math.MaxInt64 {
			return wnum{lo: int64(lo)}
		}
	}
	return wnum{b: new(big.Int).Mul(a.toBig(), b.toBig())}
}

// mix64 is the splitmix64 finalizer: the hash of packed uint64 keys for
// the open-addressing tables below.  Packed keys are dense in their low
// bits, so masking them directly would pile every probe into the bottom
// of the slot array; the finalizer spreads all 64 input bits over all 64
// output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func nextPow2(n int) int {
	return 1 << uint(bits.Len(uint(n-1)))
}

// wmap is a keyed accumulator of wnums: an open-addressing table with
// inline wnum values for packed (uint64) keys, a Go map for spilled
// (string) keys.  The open form replaces the previous map[uint64]wnum:
// key and weight live side by side in one 24-byte slot, so a linear
// probe on a splitmix64-hashed key touches one cache line per lookup in
// the common case, where the runtime map chased bucket pointers and
// tombstones.  Load is capped at 1/2 — the DP's inner loop is
// lookup-heavy with frequent misses, and an unsuccessful linear probe
// at 3/4 load costs ~3x the probes it does at 1/2.
//
// Slot encoding: a slot is empty iff its value isZero().  That encoding
// is sound because every stored weight is ≥ 1 (weights start at 1 and
// are products/sums of stored weights); add drops zero weights — the
// additive identity — outright to preserve it.
//
// With set on the accumulator is a key set — the existence semiring of
// the predicate runs (projectKeys): a key keeps the first weight it got,
// so no sum ever grows towards a big.Int, and the flat form is one bit
// per key (bits) instead of one wnum.  A counting accumulator's flat form
// (dense) is pointer-free: an int64 per key, -1 for a weight past int64,
// which is then kept in over.
type wmap struct {
	codec keyCodec
	set   bool
	n     int // packed entries; len() covers the spill form too
	mask  uint64
	slots []wslot
	dense []int64
	over  map[uint64]*big.Int
	bits  []uint64 // flat form of a key set
	sk    map[string]wnum
}

// wslot is one open-addressing slot: packed key plus inline weight.
type wslot struct {
	key uint64
	val wnum
}

// denseWmapCap bounds the key spaces stored as a flat array: dom^width
// packed keys index dense directly — no hash, no probe chain — while
// the array stays ≤ 512 KiB (65536 int64s).
const denseWmapCap = 1 << 16

// densePools recycle the flat arrays of counting accumulators, by key
// bits: a cold count of the 4-cycle over 120 values fills one of 1<<14
// weights (128 KiB), garbage once its parent has read it.  An array goes
// back zeroed (release).
var densePools [17]sync.Pool

// newWmap returns an accumulator (a key set if set) presized for about n
// entries (0 = unknown).  sparse keeps a small key space out of the flat
// form, whose zeroing costs the key space whatever the run puts in it.
func newWmap(codec keyCodec, n int, set, sparse bool) *wmap {
	m := &wmap{codec: codec, set: set}
	if codec.packed {
		if kb := codec.bits * uint(codec.width); kb <= 16 && !sparse { // key space 1<<kb ≤ denseWmapCap
			if set {
				m.bits = make([]uint64, (1<<kb+63)/64)
			} else if p, ok := densePools[kb].Get().(*[]int64); ok {
				m.dense = *p
			} else {
				m.dense = make([]int64, 1<<kb)
			}
			return m
		}
		capN := nextPow2(8 + 2*n) // ≤ 1/2 load at the hint
		m.slots = make([]wslot, capN)
		m.mask = uint64(capN - 1)
	} else {
		m.sk = make(map[string]wnum, n)
	}
	return m
}

// addPacked accumulates w at packed key k, growing at 1/2 load.
func (m *wmap) addPacked(k uint64, w wnum) {
	if w.isZero() {
		return // identity; also keeps the empty-slot encoding sound
	}
	if m.bits != nil {
		m.setBit(k)
		return
	}
	if m.dense != nil {
		if w.b != nil || !m.addDense(k, w.lo) {
			m.spillDense(k, w)
		}
		return
	}
	if (m.n+1)*2 > len(m.slots) {
		m.growPacked()
	}
	i := mix64(k) & m.mask
	for {
		s := &m.slots[i]
		if s.val.isZero() {
			s.key = k
			s.val = w
			m.n++
			return
		}
		if s.key == k {
			if !m.set {
				s.val = addW(s.val, w)
			}
			return
		}
		i = (i + 1) & m.mask
	}
}

// setBit adds packed key k to a key set's flat form.
func (m *wmap) setBit(k uint64) {
	wd := &m.bits[k>>6]
	m.n += int(^*wd >> (k & 63) & 1) // no branch: a key set's adds are dense in a tail
	*wd |= 1 << (k & 63)
}

// addDense adds lo ≥ 1 at packed key k of a counting accumulator's flat
// form (a key set's is bits) and reports true, unless the entry is past
// int64 or the sum would be: then it adds nothing, and the caller adds by
// spillDense.  It inlines into the DP's loops.
func (m *wmap) addDense(k uint64, lo int64) bool {
	v := m.dense[k]
	if v < 0 || v+lo < 0 { // both operands are non-negative: wrap ⇒ negative
		return false
	}
	if v == 0 {
		m.n++
	}
	m.dense[k] = v + lo
	return true
}

// spillDense accumulates w ≠ 0 at packed key k of a counting accumulator's
// flat form where addDense does not: past int64.
func (m *wmap) spillDense(k uint64, w wnum) {
	if m.dense[k] == 0 {
		m.n++
	}
	if m.over == nil {
		m.over = make(map[uint64]*big.Int)
	}
	m.over[k] = addW(m.denseAt(k), w).b
	m.dense[k] = -1
}

// denseAt is the weight at packed key k of a counting accumulator's flat
// form.
func (m *wmap) denseAt(k uint64) wnum {
	if v := m.dense[k]; v >= 0 {
		return wnum{lo: v}
	}
	return wnum{b: m.over[k]}
}

// release hands a counting accumulator's flat array back to densePools,
// zeroed.  m is dead afterwards: the pool holds &m.dense.
func (m *wmap) release() {
	if m.dense != nil {
		clear(m.dense)
		densePools[bits.TrailingZeros(uint(len(m.dense)))].Put(&m.dense)
	}
}

// growPacked doubles the slot array and reinserts every entry.
func (m *wmap) growPacked() {
	old := m.slots
	capN := 2 * len(old)
	m.slots = make([]wslot, capN)
	m.mask = uint64(capN - 1)
	for _, s := range old {
		if s.val.isZero() {
			continue
		}
		j := mix64(s.key) & m.mask
		for !m.slots[j].val.isZero() {
			j = (j + 1) & m.mask
		}
		m.slots[j] = s
	}
}

// add accumulates w at the key for vals.  buf is scratch for spill keys.
func (m *wmap) add(vals []int, w wnum, buf []byte) {
	if m.codec.packed {
		m.addPacked(m.codec.pack(vals), w)
		return
	}
	m.addSpill(spillKey(vals, buf), w)
}

func (m *wmap) addSpill(k string, w wnum) {
	if old, ok := m.sk[k]; !ok {
		m.sk[k] = w
	} else if !m.set {
		m.sk[k] = addW(old, w)
	}
}

// len returns the number of keys.
func (m *wmap) len() int {
	if m.codec.packed {
		return m.n
	}
	return len(m.sk)
}

// get looks up the weight at vals; ok reports presence.
func (m *wmap) get(vals []int, buf []byte) (wnum, bool) {
	if m.codec.packed {
		k := m.codec.pack(vals)
		if m.bits != nil {
			if m.bits[k>>6]>>(k&63)&1 == 0 {
				return wnum{}, false
			}
			return wnum{lo: 1}, true
		}
		if m.dense != nil {
			return m.denseAt(k), m.dense[k] != 0
		}
		i := mix64(k) & m.mask
		for {
			s := &m.slots[i]
			if s.val.isZero() {
				return wnum{}, false
			}
			if s.key == k {
				return s.val, true
			}
			i = (i + 1) & m.mask
		}
	}
	w, ok := m.sk[spillKey(vals, buf)]
	return w, ok
}

// forEach visits every (assignment, weight) pair, decoding keys into the
// supplied scratch slice (len == codec.width, reused between visits).
func (m *wmap) forEach(vals []int, fn func(vals []int, w wnum)) {
	if m.codec.packed {
		if m.bits != nil {
			for k := range bitvec.Each(m.bits) {
				m.codec.unpack(uint64(k), vals)
				fn(vals, wnum{lo: 1})
			}
			return
		}
		if m.dense != nil {
			for k, w := range m.dense {
				if w == 0 {
					continue
				}
				m.codec.unpack(uint64(k), vals)
				fn(vals, m.denseAt(uint64(k)))
			}
			return
		}
		for _, s := range m.slots {
			if s.val.isZero() {
				continue
			}
			m.codec.unpack(s.key, vals)
			fn(vals, s.val)
		}
		return
	}
	for k, w := range m.sk {
		spillDecode(k, vals)
		fn(vals, w)
	}
}

// Table is a materialized constraint: the set of allowed assignments over
// its scope (variable positions), deduplicated, in one of two layouts
// fixed when it is built.  On tuples it is flat row-major []int32 cells
// like the structure package's columnar relations, entered by prefix
// indexes (value-prefix → row ids) built lazily per bound position subset
// and cached on the table (capped: see prefixIndex).  On rows it is a
// width-2 table's bit matrix, by either scope position (rows): a view of
// the store's rows (storeRows), or built as rows by the engine
// (rowsTable).  Tables are immutable once built and shared across plans
// via the Session.
//
// Cells, index arrays and the rows the engine builds are ordinary heap
// slices, garbage once the session that built them leaves the registry
// and its last count returns; a store view's rows are the store's.
type Table struct {
	width int
	n     int
	dom   int     // domain size of the values (index key packing)
	flat  []int32 // the cells of a table on tuples

	mu      sync.Mutex                        // guards idx's creation and each index's build
	idx     *cache.Cache[uint64, *tableIndex] // bound-position bitmask → index; nil until first probed
	bitRows [2][]uint64                       // rows(by) of a table on rows

	// stride is the distance of two rows of bitRows in words, at least
	// ⌈dom/64⌉ (a store view's is the store's); 0 for a table on tuples.
	stride int
}

func newTable(width, dom int) *Table { return &Table{width: width, dom: dom} }

// rowsTable returns the width-2 table whose rows(0) is m: stride words a
// row, row u the values beside u.
func rowsTable(m []uint64, stride, dom int) *Table {
	t := newTable(2, dom)
	t.bitRows[0], t.n, t.stride = m, bitvec.Count(m), stride
	return t
}

// storeRows returns the table of atom c over rel read in place, when c is
// a plain binary atom (two distinct variables, in either orientation) and
// rel keeps rows (Relation.BitRows): rows(p) is the store's fwd or bwd, by
// the argument at scope position p.  Otherwise nil.
func storeRows(c *planConstraint, rel *structure.Relation, dom int) *Table {
	fwd, bwd, stride := rel.BitRows()
	if fwd == nil || len(c.scope) != 2 || len(c.atomTmpl) != 2 {
		return nil
	}
	t := &Table{width: 2, n: rel.Len(), dom: dom, stride: stride}
	t.bitRows[c.atomTmpl[0]], t.bitRows[c.atomTmpl[1]] = fwd, bwd
	return t
}

// tupleLayouts counts the predicate tables built as tuples, for the
// package's tests (export_test.go) to tell which side of the fit rule a
// count's predicate tables were built on.
var tupleLayouts atomic.Int64

// Len returns the number of distinct rows.
func (t *Table) Len() int { return t.n }

// appendRow copies vals as a new row (the caller guarantees dedup).
func (t *Table) appendRow(vals []int) {
	for _, v := range vals {
		t.flat = append(t.flat, int32(v))
	}
	t.n++
}

// rowsMinDom is the smallest universe with tables on rows:
// from 64 values on a row is at least a word, and a flat key set over two
// positions (wmap.bits, codec.bits ≥ 6) is word-aligned rows already.
const rowsMinDom = structure.RowsMinDom

// rows returns the bit matrix of a table on rows by scope position by —
// row u, stride words from the next, holds the values beside u in the
// rows with u at by — or nil for a table on tuples.  The orientation a
// table was not built with is transposed on first use and cached beside
// idx.
func (t *Table) rows(by int) []uint64 {
	if t.stride == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bitRows[by] == nil {
		m := make([]uint64, t.dom*t.stride)
		bitvec.Transpose(m, t.stride, t.bitRows[1-by], t.stride, t.dom)
		t.bitRows[by] = m
	}
	return t.bitRows[by]
}

// rowSrc is one operand of a row intersection: the row of the bit matrix
// m, stride words apart, that the value at bag position by selects
// (stride 0: m is a single row).
type rowSrc struct {
	m      []uint64
	stride int
	by     int
}

// tableIndex is a hash index of a table keyed on the packed values of a
// fixed subset of its scope positions: probe(prefix) → row ids.
//
// For packed codecs it is an open-addressing CSR index sized once at
// build time (power-of-two slots, ≤ 0.7 load, no rehash ever): keys
// holds the packed prefixes, counts/starts describe each key's span in
// rows, and counts[i] == 0 marks slot i empty (every present key has at
// least one row).  A probe is a splitmix64 hash plus a linear scan of
// adjacent slots — one cache line in the common case — and returns a
// subslice of rows, allocation-free.  Wide prefixes that spill the
// packed budget keep the string-keyed map form.
type tableIndex struct {
	pos   []int // scope positions covered, ascending
	codec keyCodec

	mask   uint64
	keys   []uint64
	starts []int32
	counts []int32
	rows   []int32

	sk map[string][]int32 // spill form (codec.packed == false)
}

// probe returns the row ids whose prefix packs to key (nil if none).
func (ix *tableIndex) probe(key uint64) []int32 {
	i := mix64(key) & ix.mask
	for {
		c := ix.counts[i]
		if c == 0 {
			return nil
		}
		if ix.keys[i] == key {
			s := ix.starts[i]
			return ix.rows[s : s+c]
		}
		i = (i + 1) & ix.mask
	}
}

// lookup is probe for either index form: vals are the prefix values
// aligned with pos, buf scratch for a spill key.
func (ix *tableIndex) lookup(vals []int, buf []byte) []int32 {
	if ix.codec.packed {
		return ix.probe(ix.codec.pack(vals))
	}
	return ix.sk[spillKey(vals, buf)]
}

// slotFor returns the slot of key, claiming an empty one if absent
// (build-time helper; claimed slots get a nonzero count immediately).
func (ix *tableIndex) slotFor(key uint64) uint64 {
	i := mix64(key) & ix.mask
	for ix.counts[i] != 0 && ix.keys[i] != key {
		i = (i + 1) & ix.mask
	}
	ix.keys[i] = key
	return i
}

// tableIndexCacheCap bounds the per-table prefix-index cache.  A
// pathological workload binding the same table under many different
// bound-position subsets (e.g. ad-hoc queries over one large relation)
// would otherwise accumulate one index per subset for the life of the
// session.  Plans already bound keep their direct *tableIndex pointers —
// eviction only stops the cache from handing the index to future binds.
const tableIndexCacheCap = 8

// prefixIndex returns (building and caching on first use) the index of t
// keyed on the given scope positions (ascending, len ≤ 64).  Safe for
// concurrent use; in practice it is called only at plan-bind time so run
// time probes never touch the mutex.
func (t *Table) prefixIndex(pos []int) *tableIndex {
	var mask uint64
	for _, j := range pos {
		mask |= 1 << uint(j)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.idx == nil {
		t.idx = cache.New[uint64, *tableIndex](tableIndexCacheCap)
	} else if ix, ok := t.idx.Get(mask); ok {
		return ix
	}
	ix := &tableIndex{pos: append([]int(nil), pos...), codec: newKeyCodec(t.dom, len(pos))}
	vals := make([]int, len(pos))
	if ix.codec.packed {
		capN := t.n + (t.n*3+6)/7 // ≥ n/0.7: load factor ≤ 0.7, never rehashed
		if capN < 8 {
			capN = 8
		}
		capN = nextPow2(capN)
		ix.mask = uint64(capN - 1)
		ix.keys = make([]uint64, capN)
		ix.starts = make([]int32, capN)
		ix.counts = make([]int32, capN)
		ix.rows = make([]int32, t.n)
		// Pass 1: bucket cardinalities.
		for r := 0; r < t.n; r++ {
			base := r * t.width
			for i, j := range pos {
				vals[i] = int(t.flat[base+j])
			}
			ix.counts[ix.slotFor(ix.codec.pack(vals))]++
		}
		// Prefix-sum the spans, then fill using starts as the write
		// cursor and rewind it afterwards — no temporary cursor array.
		sum := int32(0)
		for i, c := range ix.counts {
			if c != 0 {
				ix.starts[i] = sum
				sum += c
			}
		}
		for r := 0; r < t.n; r++ {
			base := r * t.width
			for i, j := range pos {
				vals[i] = int(t.flat[base+j])
			}
			s := ix.slotFor(ix.codec.pack(vals))
			ix.rows[ix.starts[s]] = int32(r)
			ix.starts[s]++
		}
		for i, c := range ix.counts {
			if c != 0 {
				ix.starts[i] -= c
			}
		}
	} else {
		ix.sk = make(map[string][]int32, t.n)
		buf := make([]byte, 0, 8*len(pos))
		for r := 0; r < t.n; r++ {
			base := r * t.width
			for i, j := range pos {
				vals[i] = int(t.flat[base+j])
			}
			k := spillKey(vals, buf)
			ix.sk[k] = append(ix.sk[k], int32(r))
		}
	}
	t.idx.Add(mask, ix)
	return ix
}

// The kinds of a node program's ops (execStep.kind).  The first five are
// constraint steps, fixed at plan bind (newExecPlan); the rest are chosen
// per run (program), when the child groups are known.
const (
	opScan   = iota // bind bit to each non-empty row of srcs[0] (in a delta run, of the mask srcs[1]'s values alone)
	opRows          // bind bit to each value in the intersection of srcs' rows
	opTest          // both positions bound: bit's value must be in srcs[0]'s row
	opProbe         // bind freeScope from the rows idx holds under the values at boundBag
	opTuples        // bind freeScope from every row of table
	opDrive         // opProbe on a child group's keys: bind the free position bit (driverFor)
	opFill          // bind bit to every value of the domain
	opTail          // the last binder: one intersection of srcs' rows, emitted as mode says
	numOpKinds
)

// execStep is one binder of a node's program as newExecPlan builds it
// for a constraint in bind order, or program for a free position: the
// op at index d binds the bag positions set at bind depth d+1 (depth 0
// is before any op runs).  Its kind and operands are fixed before the
// first binding, so a run (enumerate) is one loop over the ops with a
// cursor per depth.
type execStep struct {
	kind int
	// A row op's srcs intersect to the candidates of bag position bit,
	// which it binds (opRows, opTail; freeBag = {bit}) or, both bound,
	// tests (opTest).  A test of the position the op before it binds from
	// rows is no op of its own: its row joins that op's srcs.  A table on
	// rows entered with nothing bound is two ops: a scan binds bit to each
	// non-empty row of srcs[0], and the next op binds the other position
	// from that row.  opFill binds bit too.
	bit  int
	srcs []rowSrc

	table *Table
	// idx is the prefix index opProbe and opDrive enter table by, keyed on
	// the values at boundBag (aligned with idx.pos).  It is nil for a
	// table entered with no bound position (opTuples) and for tables on
	// rows.
	idx      *tableIndex
	boundBag []int
	// freeScope/freeBag are the scope positions opProbe, opDrive and
	// opTuples bind and the bag positions they bind into.
	freeScope []int
	freeBag   []int
}

// execOp is a step as one run uses it (program), with what the run's
// child groups and output decide:
//   - ready: the child-group lookups due once the op has bound — each at
//     the earliest depth where all of its shared bag positions are set, so
//     a lookup runs once per distinct shared prefix and a missing factor
//     abandons the subtree before any deeper op runs;
//   - cut: in an existence run, the op completes the output key, so a key
//     already present is not searched again (see program);
//   - mode, gather, outShift, gShift: an opTail's emission, and the one
//     child group with flat weights it reads by index (gather): at bit = x
//     the output's key is base | x<<outShift, the gather's gBase |
//     x<<gShift.
type execOp struct {
	execStep
	ready            []*childGroup
	cut              bool
	mode             int
	gather           *childGroup
	outShift, gShift uint
}

// execNode is a decomposition node bound to a session's tables.
type execNode struct {
	width   int
	steps   []execStep
	freePos []int // bag positions covered by no constraint at this node
	cons    int   // constraints at this node
}

// execPlan is a component bound to one session's (pruned) tables: bind
// orders chosen, prefix indexes built.  It is cached per (component,
// session) and reused by every subsequent count, so executing it does
// zero formula-dependent setup.
type execPlan struct {
	nodes []execNode

	// masks marks a delta term's run: per variable, its support (nil:
	// none), which every value bound from rows is cut to.
	masks [][]uint64
}

// newExecPlan chooses the per-node bind orders for the given tables and
// binds every non-pivot step to its table's rows or, for a table on
// tuples, builds the prefix index it probes.  Heuristic: smallest table
// first, then maximal bound-prefix overlap (ties: smaller table, then
// placement order).  A delta term's run (masks ≠ nil) binds last the
// position lastBinder picks.
func newExecPlan(pc *planComponent, tables []*Table, masks [][]uint64) *execPlan {
	ep := &execPlan{nodes: make([]execNode, len(pc.dec.Bags)), masks: masks}
	for ni, bag := range pc.dec.Bags {
		meta := &pc.nodes[ni]
		cons := pc.consAt[ni]
		en := &ep.nodes[ni]
		en.width = len(bag)
		en.freePos, en.cons = meta.freePos, len(cons)
		if len(cons) == 0 {
			continue
		}
		mask := func(bi int) []rowSrc { // bag position bi's support in a delta run
			if masks == nil || masks[bag[bi]] == nil {
				return nil
			}
			return []rowSrc{{masks[bag[bi]], 0, bi}}
		}
		last := -1
		if masks != nil {
			last = lastBinder(pc, ni, tables)
		}
		var pending []rowSrc             // the rows last is bound from
		boundAt := make([]int, len(bag)) // bind depth per position; 0 = unbound
		used := make([]bool, len(cons))
		en.steps = make([]execStep, 0, len(cons))
		for placed := 0; placed < len(cons); placed++ {
			best, bestOv, bestSz, bestLast := -1, -1, -1, false
			for k := range cons {
				if used[k] {
					continue
				}
				ov := 0
				if placed > 0 { // pivot choice is by size alone
					for _, bi := range meta.scopeBag[k] {
						if boundAt[bi] > 0 {
							ov++
						}
					}
				}
				sz := tables[cons[k]].Len()
				hasLast := slices.Contains(meta.scopeBag[k], last) // placed after every other table
				if best == -1 || bestLast && !hasLast || bestLast == hasLast && (ov > bestOv || (ov == bestOv && sz < bestSz)) {
					best, bestOv, bestSz, bestLast = k, ov, sz, hasLast
				}
			}
			used[best] = true
			t := tables[cons[best]]
			if bestLast { // scan the other position if unbound; last is bound from its row
				o := 1 - slices.Index(meta.scopeBag[best], last)
				src := rowSrc{t.rows(o), t.stride, meta.scopeBag[best][o]}
				if boundAt[src.by] == 0 {
					boundAt[src.by] = len(en.steps) + 1
					en.steps = append(en.steps, execStep{table: t, srcs: append([]rowSrc{src}, mask(src.by)...), bit: src.by, freeBag: []int{src.by}})
				}
				pending = append(pending, src)
				continue
			}
			st := execStep{table: t}
			var boundScope []int
			for j, bi := range meta.scopeBag[best] {
				if boundAt[bi] > 0 {
					boundScope = append(boundScope, j)
					st.boundBag = append(st.boundBag, bi)
				} else {
					st.freeScope = append(st.freeScope, j)
					st.freeBag = append(st.freeBag, bi)
				}
			}
			// by is the scope position selecting the row: the bound one, or
			// of two the one bound first, so that a test is of the later.
			var m []uint64
			by := 0
			if t.stride != 0 {
				if len(boundScope) > 0 {
					by = boundScope[0]
				}
				if len(boundScope) == 2 && boundAt[st.boundBag[0]] > boundAt[st.boundBag[1]] {
					by = 1
				}
				m = t.rows(by)
			}
			switch {
			case m != nil:
				src := rowSrc{m, t.stride, meta.scopeBag[best][by]}
				st.bit = meta.scopeBag[best][1-by]
				if len(boundScope) == 0 { // the scan of src.by, then st binds bit from its row
					boundAt[src.by] = len(en.steps) + 1
					en.steps = append(en.steps, execStep{table: t, srcs: append([]rowSrc{src}, mask(src.by)...), bit: src.by, freeBag: []int{src.by}})
					st.boundBag, st.freeBag = []int{src.by}, []int{st.bit}
				} else if prev := &en.steps[len(en.steps)-1]; len(st.freeBag) == 0 && prev.bindsRow() && prev.bit == st.bit {
					prev.srcs = append(prev.srcs, src)
					continue
				}
				st.srcs = []rowSrc{src}
				if len(st.freeBag) > 0 {
					st.srcs = append(st.srcs, mask(st.bit)...)
				}
			case len(boundScope) > 0 && t.width <= 64:
				// Scope widths beyond 64 cannot be mask-keyed; fall back to
				// row enumeration (unreachable for bag widths the packed and
				// spill key paths are designed for).
				st.idx = t.prefixIndex(boundScope)
			}
			for _, bi := range st.freeBag {
				boundAt[bi] = len(en.steps) + 1
			}
			en.steps = append(en.steps, st)
		}
		if pending != nil {
			en.steps = append(en.steps, execStep{table: tables[cons[0]], srcs: append(pending, mask(last)...),
				bit: last, boundBag: []int{pending[0].by}, freeBag: []int{last}})
		}
		for i := range en.steps {
			en.steps[i].kind = en.steps[i].stepKind()
		}
	}
	return ep
}

// lastBinder picks the position node ni of a delta run binds last, by one
// intersection (a popcount, not a hashed add a value): covered by live
// tables (the run's tables on rows) alone, outside the node's output and
// its child groups; or -1.
func lastBinder(pc *planComponent, ni int, tables []*Table) int {
	meta := &pc.nodes[ni]
	taken := func(bi int) bool {
		for k, ci := range pc.consAt[ni] {
			if tables[ci].stride == 0 && slices.Contains(meta.scopeBag[k], bi) {
				return true
			}
		}
		return slices.Contains(meta.shared, bi)
	}
	for k, ci := range pc.consAt[ni] {
		for _, bi := range meta.scopeBag[k] {
			if tables[ci].stride != 0 && !taken(bi) {
				return bi
			}
		}
	}
	return -1
}

// bindsRow reports whether the step binds a bag position (bit) from the
// rows its bound positions select.
func (st *execStep) bindsRow() bool {
	return st.srcs != nil && len(st.freeBag) == 1 && len(st.boundBag) > 0
}

// stepKind is the kind of a constraint step as newExecPlan built it.
func (st *execStep) stepKind() int {
	switch {
	case st.bindsRow():
		return opRows
	case st.srcs != nil && len(st.boundBag) == 0:
		return opScan
	case st.srcs != nil:
		return opTest
	case st.idx == nil:
		return opTuples
	}
	return opProbe
}

// opCursor is one bind depth's place in a run (enumerate): the weight
// its op started from and where its candidates stand.
type opCursor struct {
	w    wnum
	cand []uint64 // opRows, an opTail that binds: the candidates
	word uint64   // cand[i]'s bits not yet bound
	ids  []int32  // opProbe, opDrive: the rows the probe returned
	i    int      // next word, row or value
}

// execScratch holds the buffers of one node enumeration, pooled across
// calls to keep the inner loops allocation-free.
type execScratch struct {
	assign []int
	proj   []int
	vals   []int
	keyBuf []byte
	cand   []uint64 // row intersections, one per bind depth
	ops    int      // cancellation-poll counter (see dpRun.cancelled)

	// The node program (program) and its run's state.
	prog    []execOp
	cur     []opCursor
	boundAt []int // bind depth per bag position
	due     []int // lookup depth per child group; -1: read at the tail
	ready   []*childGroup
	readyAt []int // ready[readyAt[d]:readyAt[d+1]] are the lookups due at depth d
	tail    []rowSrc
}

var scratchPool = sync.Pool{New: func() any { return &execScratch{} }}

// ensure grows each buffer to at least width.  Every buffer's capacity is
// checked independently: pooled scratches cycle through plans of
// different widths, and a joint check on one buffer would leave the
// others — notably keyBuf, whose required capacity is 8×width bytes for
// spill keys — at a stale smaller capacity.
func (sc *execScratch) ensure(width int) {
	if cap(sc.assign) < width {
		sc.assign = make([]int, width)
	}
	if cap(sc.proj) < width {
		sc.proj = make([]int, width)
	}
	if cap(sc.vals) < width {
		sc.vals = make([]int, width)
	}
	if cap(sc.keyBuf) < 8*width {
		sc.keyBuf = make([]byte, 0, 8*width)
	}
	if cap(sc.boundAt) < width {
		sc.boundAt = make([]int, width)
	}
}

// childGroup is one child's node table projected onto the bag positions
// it shares with the parent.
type childGroup struct {
	sharedBag []int // indices into the parent bag
	sums      *wmap // keyed by the shared projection
}

// dpRun is one joinCount (or projectKeys) execution: the compiled
// component and its bound plan.  A run lives on one goroutine; the
// tables it builds for itself (driverFor, groupRows) are heap slices
// that die with it.
type dpRun struct {
	pc   *planComponent
	ep   *execPlan
	dom  int
	maxW int

	// exists switches the run to the existence semiring (projectKeys):
	// node tables are key sets (wmap.set), so every weight is 1, and each
	// node looks for one witness per output key (cut in enumerate).
	exists bool

	// done is the run's cancellation signal (nil when the caller's
	// context cannot fire; then every check below is a single nil
	// comparison).  aborted latches once a poll observes done, so every
	// enclosing loop bails out at its next check; an aborted run's
	// partial result is discarded by joinCount.
	done    <-chan struct{}
	aborted bool
}

// cancelCheckMask throttles cancellation polls: the done channel is
// consulted once per (mask+1) checks per scratch, keeping the poll off
// the executor's per-row fast path.
const cancelCheckMask = 4096 - 1

// cancelled reports whether the run should stop.  Checked at every
// pivot-row start and every emitted assignment, so both wide-and-
// shallow and narrow-and-deep enumerations observe cancellation within
// a bounded amount of work.
func (r *dpRun) cancelled(sc *execScratch) bool {
	if r.done == nil {
		return false
	}
	if r.aborted {
		return true
	}
	sc.ops++
	if sc.ops&cancelCheckMask != 0 {
		return false
	}
	select {
	case <-r.done:
		r.aborted = true
		return true
	default:
		return false
	}
}

func (r *dpRun) scratch() *execScratch {
	sc := scratchPool.Get().(*execScratch)
	sc.ensure(r.maxW)
	return sc
}

// joinCount runs the join-count DP over the bound plan and returns the
// total number of assignments of the component's active variables (with
// multiplicities counting extensions of the quantified subtree variables
// — which are none at the root, so the total is exact).  The run stays on
// the caller's goroutine.
//
// done (nil = never fires) is the cooperative cancellation signal: when
// it fires mid-run the partial result is discarded and aborted=true is
// returned; a run that completed before observing the signal returns its
// (correct, complete) total with aborted=false.
func joinCount(pc *planComponent, ep *execPlan, domSize int, done <-chan struct{}) (total *big.Int, aborted bool) {
	r := &dpRun{pc: pc, ep: ep, dom: domSize, maxW: pc.dec.Width() + 1, done: done}
	root := r.process(pc.root, nil)
	if r.aborted {
		return nil, true
	}
	total = new(big.Int)
	vals := make([]int, root.codec.width)
	root.forEach(vals, func(_ []int, w wnum) {
		w.addInto(total)
	})
	root.release()
	return total, false
}

// projectKeys runs the DP over the bound plan in the existence semiring
// and returns the root bag's assignments projected onto its positions
// proj, as a key set: the assignments of those variables that extend to
// an assignment of all of the component's variables satisfying every
// constraint.  This is how an ∃-component predicate is materialized
// (Session.materializePredicate).  Weights would count the extensions,
// which nobody asks for, so they stay 1 — nothing overflows towards
// big.Int however many extensions there are.  done and aborted are as
// for joinCount.
func projectKeys(pc *planComponent, ep *execPlan, domSize int, proj []int, done <-chan struct{}) (keys *wmap, aborted bool) {
	r := &dpRun{pc: pc, ep: ep, dom: domSize, maxW: pc.dec.Width() + 1, done: done, exists: true}
	keys = r.process(pc.root, proj)
	return keys, r.aborted
}

// projSize bounds the number of distinct keys of a projection onto w
// positions: dom^w, saturating at lim.  dom ≤ 1 covers the empty and
// singleton universes (at most one key either way).
func projSize(dom, w, lim int) int {
	if dom <= 1 || w == 0 {
		return 1
	}
	n := 1
	for i := 0; i < w; i++ {
		if n > lim/dom {
			return lim
		}
		n *= dom
	}
	if n > lim {
		return lim
	}
	return n
}

// process computes node ni's contribution, keyed directly on the bag
// positions proj (the positions ni shares with its parent; empty at the
// root, aggregating everything into one entry).  Emitting straight into
// the parent's key space fuses the DP's project-and-group step into the
// enumeration — no full-width node table is ever materialized.
func (r *dpRun) process(ni int, proj []int) *wmap {
	children := r.pc.children[ni]
	meta := &r.pc.nodes[ni]
	groups := make([]*childGroup, len(children))
	for i, c := range children {
		groups[i] = &childGroup{
			sharedBag: meta.groups[i].sharedBag,
			sums:      r.process(c, meta.groups[i].sharedChild),
		}
	}

	en := &r.ep.nodes[ni]
	hint := projSize(r.dom, len(proj), en.pivotSize(r.dom))
	if r.ep.masks != nil { // a delta run's table is hashed, sized by the largest support it is keyed on
		hint = 1
		for _, bi := range proj {
			hint = max(hint, bitvec.Count(r.ep.masks[r.pc.dec.Bags[ni][bi]]))
		}
	}
	out := newWmap(newKeyCodec(r.dom, len(proj)), hint, r.exists, r.ep.masks != nil)
	r.enumerate(en, groups, out, proj)
	for _, g := range groups {
		g.sums.release()
	}
	return out
}

// pivotSize is the length of a node's outermost loop: the pivot table's
// row count, or the domain size when the node has no constraints (then
// the first free variable's values are scanned).
func (en *execNode) pivotSize(domSize int) int {
	if len(en.steps) > 0 {
		return en.steps[0].table.n
	}
	if len(en.freePos) > 0 {
		return domSize
	}
	return 1
}

// bindDepths writes into boundAt, per bag position, the bind depth at
// which it is set: depth si+1 is after step si binds its free scope,
// depth len(steps)+k+1 after free variable k is assigned (depth 0 is before
// any binder runs).
func (en *execNode) bindDepths(boundAt []int) []int {
	boundAt = boundAt[:en.width]
	for si := range en.steps {
		for _, bi := range en.steps[si].freeBag {
			boundAt[bi] = si + 1
		}
	}
	for k, bi := range en.freePos {
		boundAt[bi] = len(en.steps) + k + 1
	}
	return boundAt
}

// driverFor returns the op that binds free bag position f — one no local
// constraint covers.  It is opDrive where a child group shares f together
// with at least one position bound before it: the candidates come from
// the smallest such group's keys instead of the whole domain, through a
// table of its distinct (bound prefix, value) projections indexed on the
// prefix.  Otherwise it is opFill, over the domain.  A free variable is in
// the bag only to connect nodes that do constrain it, so under a bound
// prefix the child's keys name the few values that can survive, where the
// domain scan probes the child's table |B| times per prefix.  The group's
// readiness lookup still runs and supplies the weight; a driver only
// narrows the candidates.  Without a bound prefix the scan is one pass
// over the domain already.
func driverFor(f int, groups []*childGroup, boundAt []int, dom int) execStep {
	var from *childGroup
	for _, g := range groups {
		shares, prefix := false, false
		for _, bi := range g.sharedBag {
			shares = shares || bi == f
			prefix = prefix || boundAt[bi] < boundAt[f]
		}
		// (prefixIndex keys its cache on a 64-bit position mask.)
		if shares && prefix && len(g.sharedBag) <= 64 && (from == nil || g.sums.len() < from.sums.len()) {
			from = g
		}
	}
	if from == nil {
		return execStep{kind: opFill, bit: f}
	}
	op := execStep{kind: opDrive, bit: f}
	var cols []int // the prefix's, then f's, index in the group's keys
	fcol := -1
	for i, bi := range from.sharedBag {
		switch {
		case bi == f:
			fcol = i
		case boundAt[bi] < boundAt[f]:
			cols = append(cols, i)
			op.boundBag = append(op.boundBag, bi)
		}
	}
	cols = append(cols, fcol)
	n := from.sums.len()
	t := newTable(len(cols), dom)
	t.flat = make([]int32, 0, n*len(cols))
	var dedup *structure.TupleSet // keys differing only in later-bound positions project alike
	if len(cols) < len(from.sharedBag) {
		dedup = structure.NewTupleSetSized(len(cols), n)
	}
	row := make([]int, len(cols))
	from.sums.forEach(make([]int, len(from.sharedBag)), func(vals []int, _ wnum) {
		for i, c := range cols {
			row[i] = vals[c]
		}
		if dedup == nil || dedup.Add(row) {
			t.appendRow(row)
		}
	})
	prefix := make([]int, len(cols)-1)
	for i := range prefix {
		prefix[i] = i
	}
	op.table, op.idx = t, t.prefixIndex(prefix)
	op.freeScope, op.freeBag = []int{len(cols) - 1}, []int{f}
	return op
}

// groupRows returns child group g's keys as rows over bag position v
// (which g shares), when they are rows: a flat key set (wmap.bits — an
// existence run's, over a universe of at least rowsMinDom) on v alone, or
// on v and one other position, whose value selects the row — transposed
// first, once per run, when v is the key's high column.
func (r *dpRun) groupRows(g *childGroup, v int) (rowSrc, bool) {
	set := g.sums.bits
	if set == nil || r.dom < rowsMinDom || len(g.sharedBag) > 2 {
		return rowSrc{}, false
	}
	stride := 1 << (g.sums.codec.bits - 6)
	if n := len(g.sharedBag); n == 1 || g.sharedBag[1] == v { // one row (stride 0), or v the low column
		return rowSrc{set, (n - 1) * stride, g.sharedBag[0]}, true
	}
	words := (r.dom + 63) / 64
	t := make([]uint64, r.dom*words)
	bitvec.Transpose(t, words, set, stride, r.dom)
	return rowSrc{t, words, g.sharedBag[1]}, true
}

// The emission of a row tail (opTail), chosen once per run.
const (
	tailEach  = iota // bind each candidate and go on: the general case
	tailAny          // existence run, v outside the key: one emission if there is a candidate
	tailOr           // existence run, v the last column of a flat key set: OR into the key's row
	tailCount        // counting run, v outside the key: weight × candidates, or × Σ the gather's weights
	tailAdd          // v in a flat key (bits, dense): each candidate adds weight (× the gather's) by index
	numTailModes
)

// rowBinds counts the values bound from rows (a whole tail is one), for the
// tests (export_test.go): which side of the fit rule ran, and how much.
var rowBinds atomic.Int64

// onProgram, set by the package's tests alone, sees each node program
// program builds: which op kinds and tail modes a corpus reaches.
var onProgram func(ops []execOp)

// program builds node en's ops for one run into sc.prog: the constraint
// steps (en.steps) in bind order, then one op per free position (driverFor),
// with every child-group lookup scheduled on the op after which it is due.
// It returns them, with the lookups due before any op runs and, in an
// existence run, the cut: the bind depth at which the output key is fully
// bound (-1 in a counting run).  Below the cut the enumeration only looks
// for a witness: a key that is already present is not searched again
// (execOp.cut), and the first emission unwinds back to depth cut, because
// every other candidate down there would emit the same key.
//
// The tail: when the node's last binder binds one position v from rows —
// the last step's (execStep.srcs) and those of the child key sets sharing v
// (groupRows), which alone serve a last free position — it is an opTail:
// v's candidates under a bound prefix are one intersection, emitted as
// its mode says.  One child group left there with flat weights
// (wmap.dense) is read by index too (gather): its key, as the output's,
// is base | x<<shift at v = x.
func (r *dpRun) program(sc *execScratch, en *execNode, groups []*childGroup, m *wmap, outProj []int) (ops []execOp, ready0 []*childGroup, cut int) {
	nSteps, free := len(en.steps), en.freePos
	last := nSteps + len(free) // the depth at which the bag is fully assigned
	boundAt := en.bindDepths(sc.boundAt)
	due := sc.due[:0]
	for _, g := range groups {
		d := 0
		for _, bi := range g.sharedBag {
			d = max(d, boundAt[bi])
		}
		due = append(due, d)
	}
	v, tail := -1, sc.tail[:0]
	if len(free) > 0 {
		v = free[len(free)-1]
	} else if nSteps > 0 && en.steps[nSteps-1].kind == opRows {
		st := &en.steps[nSteps-1]
		v, tail = st.bit, append(tail, st.srcs...)
	}
	rest, only := 0, -1 // the groups due at last and not read as rows
	if v >= 0 {
		for i, g := range groups {
			if due[i] != last {
				continue
			}
			if src, ok := r.groupRows(g, v); ok {
				tail, due[i] = append(tail, src), -1
			} else {
				rest, only = rest+1, i
			}
		}
	}
	mode, gather := tailEach, -1
	var outShift, gShift uint
	if len(tail) > 0 {
		if rest == 1 && groups[only].sums.dense != nil {
			g := groups[only]
			gather, rest = only, 0
			gShift = g.sums.codec.bits * uint(len(g.sharedBag)-1-slices.Index(g.sharedBag, v))
		}
		col := slices.Index(outProj, v)
		switch {
		case rest > 0:
		case col < 0 && r.exists:
			mode = tailAny
		case col < 0:
			mode = tailCount
		case r.exists && col == len(outProj)-1 && m.bits != nil:
			mode = tailOr
		case m.bits != nil || m.dense != nil:
			mode, outShift = tailAdd, m.codec.bits*uint(len(outProj)-1-col)
		}
		if mode == tailEach {
			gather = -1
		} else if gather >= 0 {
			due[gather] = -1
		}
	}

	if cap(sc.prog) < last {
		sc.prog, sc.cur = make([]execOp, last), make([]opCursor, last)
	}
	ops = sc.prog[:last]
	for i, st := range en.steps {
		ops[i] = execOp{execStep: st}
	}
	for k, f := range free {
		if len(tail) == 0 || k < len(free)-1 { // else the tail binds the last free position
			ops[nSteps+k] = execOp{execStep: driverFor(f, groups, boundAt, r.dom)}
		}
	}
	if len(tail) > 0 {
		op := &ops[last-1]
		if len(free) > 0 {
			*op = execOp{execStep: execStep{bit: v}}
		}
		op.kind, op.srcs, op.mode, op.outShift, op.gShift = opTail, tail, mode, outShift, gShift
		if gather >= 0 {
			op.gather = groups[gather]
		}
	}
	ready, readyAt := sc.ready[:0], sc.readyAt[:0]
	for d := 0; d <= last; d++ {
		readyAt = append(readyAt, len(ready))
		for i, g := range groups {
			if due[i] == d {
				ready = append(ready, g)
			}
		}
	}
	readyAt = append(readyAt, len(ready))
	ready0 = ready[readyAt[0]:readyAt[1]]
	cut = -1
	if r.exists {
		cut = 0
		for _, bi := range outProj {
			cut = max(cut, boundAt[bi])
		}
	}
	for d := range ops {
		op := &ops[d]
		op.ready, op.cut = ready[readyAt[d+1]:readyAt[d+2]], d+1 == cut && d+1 < last
	}
	if onProgram != nil {
		onProgram(ops)
	}
	sc.due, sc.tail, sc.ready, sc.readyAt = due, tail, ready, readyAt
	return ops, ready0, cut
}

// rowsAnd returns the intersection of srcs' rows at the bag assignment
// assign, two or more of them: their AND, written to buf (one row's words
// long).  The one-row case is the row itself, read in place (enumerate).
func rowsAnd(srcs []rowSrc, assign []int, buf []uint64) []uint64 {
	s := &srcs[0]
	row := s.m[assign[s.by]*s.stride:][:len(buf)]
	s = &srcs[1]
	next := s.m[assign[s.by]*s.stride:][:len(buf)]
	for i := range buf {
		buf[i] = row[i] & next[i]
	}
	for i := 2; i < len(srcs); i++ {
		s = &srcs[i]
		bitvec.And(buf, s.m[assign[s.by]*s.stride:])
	}
	return buf
}

// enumerate fills m with node en's contributions keyed on the bag
// positions outProj, by running the node's program (program): the ops in
// bind order, the first over the rows of the pivot table (or the values
// of the first free variable of a constraint-less node), each later one
// over index probes or rows under what the ops before it bound.  Bind
// orders are fixed at plan bind, so no assigned-flag bookkeeping or
// rollback happens here — every bag position is written by exactly one op
// before any deeper read.  One loop runs the program: a cursor per depth
// holds its op's candidates and the weight it started from; each binding
// folds in the child-group factors due after it, then starts the next op
// or, with the bag fully bound, emits; an op out of candidates hands back
// to the one before it.  A root with no output key (a counting run's)
// sums its emissions in one scalar and adds it to m once.
func (r *dpRun) enumerate(en *execNode, groups []*childGroup, m *wmap, outProj []int) {
	if en.cons == 1 && len(en.freePos) == 0 && len(groups) == 0 && len(outProj) == 0 && (r.ep.masks == nil || en.steps[0].table.stride == 0) {
		// One table covers the bag, each of its rows adding 1 to the one
		// key: count, don't walk (a delta run's live table's n is only a
		// bound).
		m.add(nil, wnum{lo: int64(en.steps[0].table.n)}, nil)
		return
	}
	sc := r.scratch()
	ops, ready0, cut := r.program(sc, en, groups, m, outProj)
	last := len(ops)
	words := (r.dom + 63) / 64
	if cap(sc.cand) < last*words { // one intersection per depth: ops nest
		sc.cand = make([]uint64, last*words)
	}
	assign, cur := sc.assign[:en.width], sc.cur[:last]
	scalar := len(outProj) == 0 && !r.exists
	var sum wnum // the scalar's emissions
	var sump *wnum
	if scalar {
		sump = &sum
	}
	binds := 0
	// The loop arrives at depth d+1 with weight w: ops[d] has just bound
	// (d = -1: no op has run yet).
	d, w := -1, wnum{lo: 1}
	for {
		ok, ready := true, ready0
		if d >= 0 {
			ready = ops[d].ready
			if ops[d].cut {
				_, found := m.get(valuesAt(sc.proj, assign, outProj), sc.keyBuf)
				ok = !found
			}
		}
		for i := 0; ok && i < len(ready); i++ {
			g := ready[i]
			s, found := g.sums.get(valuesAt(sc.proj, assign, g.sharedBag), sc.keyBuf)
			if ok = found; ok {
				w = mulW(w, s)
			}
		}
		switch {
		case !ok:
		case d+1 == last: // the bag is fully bound: emit
			if r.cancelled(sc) {
				break
			}
			if scalar {
				sum = addW(sum, w)
				break
			}
			m.add(valuesAt(sc.proj, assign, outProj), w, sc.keyBuf)
			if r.exists { // the ops from depth cut on stop
				d = min(d, cut-1)
			}
		default: // start the next op
			d++
			op, c := &ops[d], &cur[d]
			c.w, c.i = w, 0
			switch op.kind {
			case opRows:
				if s := &op.srcs[0]; len(op.srcs) == 1 {
					c.cand = s.m[assign[s.by]*s.stride:][:words]
				} else {
					c.cand = rowsAnd(op.srcs, assign, sc.cand[d*words:][:words])
				}
				c.word = c.cand[0]
				binds += bitvec.Count(c.cand)
			case opProbe, opDrive:
				c.ids = op.idx.lookup(valuesAt(sc.vals, assign, op.boundBag), sc.keyBuf)
			case opTail: // one intersection: bound value by value (tailEach), or spent here
				if r.cancelled(sc) {
					d--
					break
				}
				s := &op.srcs[0]
				cand := s.m[assign[s.by]*s.stride:][:words]
				if len(op.srcs) > 1 {
					cand = rowsAnd(op.srcs, assign, sc.cand[d*words:][:words])
				}
				if op.mode == tailEach {
					c.cand, c.word = cand, cand[0]
					binds += bitvec.Count(cand)
					break
				}
				binds++
				if r.emitTail(sc, op, cand, w, m, outProj, sump) {
					d = min(d, cut) // the ops from depth cut on stop
				}
				d--
			}
		}
		// Advance: the deepest op with a candidate left binds it.
	advance:
		for ; d >= 0; d-- {
			op, c := &ops[d], &cur[d]
			switch op.kind {
			case opRows, opTail:
				for c.word == 0 && c.i+1 < len(c.cand) {
					c.i++
					c.word = c.cand[c.i]
				}
				if c.word != 0 {
					assign[op.bit] = c.i<<6 | bits.TrailingZeros64(c.word)
					c.word &= c.word - 1
					break advance
				}
			case opScan: // the non-empty rows (of the mask's values, in a delta run)
				s, mask := &op.srcs[0], op.srcs[1:]
				for u := c.i; u < r.dom; u++ {
					if len(mask) > 0 { // on to the mask's next value
						wd := mask[0].m[u>>6] >> (u & 63)
						if wd == 0 {
							u |= 63
							continue
						}
						u += bits.TrailingZeros64(wd)
					}
					if bitvec.Count(s.m[u*s.stride:][:words]) == 0 {
						continue
					}
					binds++
					assign[op.bit], c.i = u, u+1
					if r.cancelled(sc) {
						break
					}
					break advance
				}
			case opTest:
				if s, u := &op.srcs[0], assign[op.bit]; c.i == 0 && s.m[assign[s.by]*s.stride+u>>6]>>(u&63)&1 != 0 {
					c.i = 1
					break advance
				}
			case opProbe, opDrive:
				if c.i < len(c.ids) {
					t := op.table
					base := int(c.ids[c.i]) * t.width
					for i, j := range op.freeScope {
						assign[op.freeBag[i]] = int(t.flat[base+j])
					}
					c.i++
					break advance
				}
			case opTuples:
				if t := op.table; c.i < t.n && !(d == 0 && r.cancelled(sc)) {
					base := c.i * t.width
					for i, j := range op.freeScope {
						assign[op.freeBag[i]] = int(t.flat[base+j])
					}
					c.i++
					break advance
				}
			case opFill:
				if c.i < r.dom && !(d == 0 && r.cancelled(sc)) {
					assign[op.bit] = c.i
					c.i++
					break advance
				}
			}
		}
		if d < 0 {
			break
		}
		w = cur[d].w
	}
	if scalar {
		m.add(nil, sum, nil)
	}
	if binds > 0 { // a tuple-side run leaves the shared counter alone
		rowBinds.Add(int64(binds))
	}
	clear(ops) // the pool keeps no table or child group alive
	clear(cur)
	clear(sc.ready)
	clear(sc.tail)
	scratchPool.Put(sc)
}

// emitTail emits a tail op's candidates cand (not tailEach: those are
// bound one by one) under weight w as its mode says — into m keyed on
// outProj, or into the scalar sum of a root with no output key (sum ≠
// nil) — and reports whether it emitted in an existence run (tailAny),
// which stops the ops from depth cut on.
func (r *dpRun) emitTail(sc *execScratch, op *execOp, cand []uint64, w wnum, m *wmap, outProj []int, sum *wnum) bool {
	assign := sc.assign
	var gBase uint64 // the gather's key at v = 0
	if assign[op.bit] = 0; op.gather != nil {
		gBase = op.gather.sums.codec.pack(valuesAt(sc.vals, assign, op.gather.sharedBag))
	}
	switch op.mode {
	case tailAny:
		if bitvec.Count(cand) > 0 {
			m.add(valuesAt(sc.proj, assign, outProj), w, sc.keyBuf)
			return true
		}
	case tailOr:
		row := m.bits[m.codec.pack(valuesAt(sc.proj, assign, outProj))>>6:][:len(cand)]
		m.n += bitvec.CountAndNot(cand, row)
		bitvec.Or(row, cand)
	case tailCount:
		n := wnum{lo: int64(bitvec.Count(cand))}
		if g := op.gather; g != nil {
			n = wnum{}
			// The sum while it fits int64, folded into n where it would not:
			// addW per candidate, a call, costs the 4-cycle's count ≈ 9 %.
			var lo int64
			for x := range bitvec.Each(cand) {
				k := gBase | uint64(x)<<op.gShift
				if v := g.sums.dense[k]; v >= 0 && lo+v >= 0 {
					lo += v
				} else {
					n, lo = addW(addW(n, wnum{lo: lo}), g.sums.denseAt(k)), 0
				}
			}
			n = addW(n, wnum{lo: lo})
		}
		if sum != nil {
			*sum = addW(*sum, mulW(w, n))
		} else {
			m.add(valuesAt(sc.proj, assign, outProj), mulW(w, n), sc.keyBuf)
		}
	case tailAdd:
		base := m.codec.pack(valuesAt(sc.proj, assign, outProj))
		switch g := op.gather; {
		case m.bits != nil: // an existence run's: every weight is 1
			for x := range bitvec.Each(cand) {
				m.setBit(base | uint64(x)<<op.outShift)
			}
		case g == nil:
			for x := range bitvec.Each(cand) {
				if k := base | uint64(x)<<op.outShift; w.b != nil || !m.addDense(k, w.lo) {
					m.spillDense(k, w)
				}
			}
		default:
			for x := range bitvec.Each(cand) {
				if k := gBase | uint64(x)<<op.gShift; g.sums.dense[k] != 0 {
					if out, p := base|uint64(x)<<op.outShift, mulW(w, g.sums.denseAt(k)); p.b != nil || !m.addDense(out, p.lo) {
						m.spillDense(out, p)
					}
				}
			}
		}
	}
	return false
}

// valuesAt writes into dst the values assign holds at the bag positions
// pos, and returns them.
func valuesAt(dst, assign, pos []int) []int {
	dst = dst[:len(pos)]
	for i, bi := range pos {
		dst[i] = assign[bi]
	}
	return dst
}

// sharedPositions returns, for the variables common to bag and childVars
// (both sorted ascending), their indices in each.
func sharedPositions(bag, childVars []int) (bagIdx, childIdx []int) {
	i, j := 0, 0
	for i < len(bag) && j < len(childVars) {
		switch {
		case bag[i] < childVars[j]:
			i++
		case bag[i] > childVars[j]:
			j++
		default:
			bagIdx = append(bagIdx, i)
			childIdx = append(childIdx, j)
			i++
			j++
		}
	}
	return
}
