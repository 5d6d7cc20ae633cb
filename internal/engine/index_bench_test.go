package engine

import (
	"math/rand"
	"testing"
)

func benchIndexSetup(b *testing.B) (*Table, []int, []uint64) {
	rng := rand.New(rand.NewSource(7))
	tb := randomTable(rng, 20000, 3, 40)
	pos := []int{0, 1}
	codec := newKeyCodec(tb.dom, len(pos))
	keys := make([]uint64, 1024)
	vals := make([]int, 2)
	for i := range keys {
		// Half the probes hit existing rows, half are uniform misses.
		if i%2 == 0 {
			r := rng.Intn(tb.n)
			vals[0], vals[1] = int(tb.flat[r*3]), int(tb.flat[r*3+1])
		} else {
			vals[0], vals[1] = rng.Intn(tb.dom), rng.Intn(tb.dom)
		}
		keys[i] = codec.pack(vals)
	}
	return tb, pos, keys
}

// Open-addressing packed-key probe: the hot path every bound-prefix
// lookup in dpRun takes.  Must stay allocation-free.
func BenchmarkIndexProbe_OpenAddr(b *testing.B) {
	tb, pos, keys := benchIndexSetup(b)
	ix := tb.prefixIndex(pos)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(ix.probe(keys[i&1023]))
	}
	_ = sink
}

// The replaced map[uint64][]int32 path, kept as the reference the probe
// microbenchmark reads against.
func BenchmarkIndexProbe_MapRef(b *testing.B) {
	tb, pos, keys := benchIndexSetup(b)
	ref := buildMapIndexRef(tb, pos)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(ref[keys[i&1023]])
	}
	_ = sink
}

// Index construction cost, both ways: the open-addressing build is two
// linear passes over the rows into slots sized once.
func BenchmarkIndexBuild_OpenAddr(b *testing.B) {
	tb, pos, _ := benchIndexSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.mu.Lock()
		tb.idx = nil
		tb.mu.Unlock()
		tb.prefixIndex(pos)
	}
}

func BenchmarkIndexBuild_MapRef(b *testing.B) {
	tb, pos, _ := benchIndexSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildMapIndexRef(tb, pos)
	}
}
