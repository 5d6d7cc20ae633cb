package structure

import (
	"testing"
)

// Large-structure store benchmarks: tuple ingestion (dedup path), indexed
// lookup interleaved with mutation (the incremental-maintenance case), and
// membership tests.  These exercise the storage layer that feeds both the
// hom solver and the engine's constraint-table materialization.

func benchSig() *Signature {
	return MustSignature(
		RelSym{Name: "E", Arity: 2},
		RelSym{Name: "T", Arity: 3},
	)
}

// benchEdges yields m deterministic pseudo-random edges over [0,n).
func benchEdges(n, m int) [][2]int {
	out := make([][2]int, 0, m)
	x := uint64(0x9e3779b97f4a7c15)
	for len(out) < m {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out = append(out, [2]int{int(x % uint64(n)), int((x >> 20) % uint64(n))})
	}
	return out
}

func benchBase(n, m int) *Structure {
	s := New(benchSig())
	for i := 0; i < n; i++ {
		s.EnsureElem("e" + itoa(i))
	}
	for _, e := range benchEdges(n, m) {
		_ = s.AddTuple("E", e[0], e[1])
	}
	return s
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// BenchmarkStore_AddTuple_50k ingests 50k edges (with duplicates hitting
// the dedup set) into a 2000-element universe.
func BenchmarkStore_AddTuple_50k(b *testing.B) {
	const n, m = 2000, 50000
	edges := benchEdges(n, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(benchSig())
		for j := 0; j < n; j++ {
			s.EnsureElem("e" + itoa(j))
		}
		for _, e := range edges {
			_ = s.AddTuple("E", e[0], e[1])
		}
	}
}

// BenchmarkStore_LookupAfterMutation interleaves one tuple insertion with
// one indexed lookup: the pattern that defeats a rebuild-from-scratch
// positional index and rewards incremental posting-list maintenance.
func BenchmarkStore_LookupAfterMutation(b *testing.B) {
	const n, m = 400, 20000
	s := benchBase(n, m)
	e := s.Rel("E")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh arity-3 tuple each iteration (n^3 ≫ b.N combinations).
		_ = s.AddTuple("T", i%n, (i/n)%n, (i/(n*n))%n)
		total := 0
		for _, r := range e.RowsWith(0, i%n) {
			total += e.Value(int(r), 1)
		}
		_ = total
	}
}

// BenchmarkStore_ForEachWith_Hot measures repeated indexed lookups on an
// unchanging structure: a posting list's rows read through the column,
// zero allocations.
func BenchmarkStore_ForEachWith_Hot(b *testing.B) {
	const n, m = 1000, 30000
	e := benchBase(n, m).Rel("E")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, r := range e.RowsWith(0, i%n) {
			total += e.Value(int(r), 1)
		}
		_ = total
	}
}

// BenchmarkStore_HasTuple_50k probes membership on a 50k-tuple relation.
func BenchmarkStore_HasTuple_50k(b *testing.B) {
	const n, m = 2000, 50000
	s := benchBase(n, m)
	probe := []int{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe[0] = i % n
		probe[1] = (i * 7) % n
		_ = s.HasTuple("E", probe)
	}
}
