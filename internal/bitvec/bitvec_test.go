package bitvec_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
)

// sizes straddle the word boundaries: empty, one bit, a word less one, a
// word, a word and one, and two words and two.
var sizes = []int{0, 1, 63, 64, 65, 130}

func words(n int) int { return (n + 63) / 64 }

// randBools draws n bits, each set with probability p.
func randBools(rng *rand.Rand, n int, p float64) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = rng.Float64() < p
	}
	return bs
}

// pack lays bs out as words, followed by extra words of garbage that a
// kernel reading only len(bs) bits must ignore.
func pack(rng *rand.Rand, bs []bool, extra int) []uint64 {
	ws := make([]uint64, words(len(bs))+extra)
	for i, b := range bs {
		if b {
			ws[i>>6] |= 1 << (i & 63)
		}
	}
	for i := words(len(bs)); i < len(ws); i++ {
		ws[i] = rng.Uint64() | 1
	}
	return ws
}

func unpack(ws []uint64, n int) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = ws[i>>6]>>(i&63)&1 == 1
	}
	return bs
}

// And, Or, Count, CountAndNot and Each against a []bool reference, at
// every size, over densities from empty to full.
func TestKernelsMatchBools(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		for _, p := range []float64{0, 0.05, 0.5, 1} {
			for round := 0; round < 8; round++ {
				a, b := randBools(rng, n, p), randBools(rng, n, rng.Float64())
				var and, or []bool
				var set []int
				andNot := 0
				for i := range a {
					and = append(and, a[i] && b[i])
					or = append(or, a[i] || b[i])
					if a[i] && !b[i] {
						andNot++
					}
					if a[i] {
						set = append(set, i)
					}
				}
				// The second operand is longer than the first, as the
				// kernels allow: its extra words must not leak in.
				aw, bw := pack(rng, a, 0), pack(rng, b, 2)

				dst := slices.Clone(aw)
				bitvec.And(dst, bw)
				if got := unpack(dst, n); !slices.Equal(got, and) {
					t.Fatalf("n=%d: And = %v, want %v", n, got, and)
				}
				dst = slices.Clone(aw)
				had := bitvec.Or(dst, bw)
				if got := unpack(dst, n); !slices.Equal(got, or) {
					t.Fatalf("n=%d: Or = %v, want %v", n, got, or)
				}
				if want := slices.Contains(b, true); had != want {
					t.Fatalf("n=%d: Or reports src had a bit = %v, want %v", n, had, want)
				}
				if got, want := bitvec.Count(aw), len(set); got != want {
					t.Fatalf("n=%d: Count = %d, want %d", n, got, want)
				}
				if got, want := bitvec.CountAndNot(aw, bw), andNot; got != want {
					t.Fatalf("n=%d: CountAndNot = %d, want %d", n, got, want)
				}
				if got := slices.Collect(bitvec.Each(aw)); !slices.Equal(got, set) {
					t.Fatalf("n=%d: Each = %v, want %v", n, got, set)
				}
				// An early stop yields exactly the first k indexes.
				for k := 0; k <= len(set) && k < 3; k++ {
					var got []int
					for i := range bitvec.Each(aw) {
						if len(got) == k {
							break
						}
						got = append(got, i)
					}
					if !slices.Equal(got, set[:k]) {
						t.Fatalf("n=%d: Each stopped after %d = %v, want %v", n, k, got, set[:k])
					}
				}
			}
		}
	}
}

// Transpose against a []bool matrix, with row strides equal to and wider
// than the row: padding words of the source are ignored, and every word
// of the destination not written by the transpose is cleared.
func TestTransposeMatchesBools(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range sizes {
		for _, pad := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {2, 3}} {
			srcStride, dstStride := words(n)+pad[0], words(n)+pad[1]
			m := make([][]bool, n)
			src := make([]uint64, n*srcStride)
			for u := range m {
				m[u] = randBools(rng, n, 0.3)
				copy(src[u*srcStride:], pack(rng, m[u], pad[0]))
			}
			dst := make([]uint64, n*dstStride)
			for i := range dst {
				dst[i] = rng.Uint64()
			}
			bitvec.Transpose(dst, dstStride, src, srcStride, n)
			for v := 0; v < n; v++ {
				row := dst[v*dstStride:][:dstStride]
				set := 0
				for u := 0; u < n; u++ {
					if got := row[u>>6]>>(u&63)&1 == 1; got != m[u][v] {
						t.Fatalf("n=%d strides %d/%d: bit %d of row %d = %v, want %v", n, srcStride, dstStride, u, v, got, m[u][v])
					}
					if m[u][v] {
						set++
					}
				}
				if bitvec.Count(row) != set {
					t.Fatalf("n=%d strides %d/%d: row %d has bits past its width", n, srcStride, dstStride, v)
				}
			}
		}
	}
}
