package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// buildMapIndexRef is the pre-open-addressing reference: the map-backed
// prefix index the packed path replaced.  Differential tests pin the
// open-addressing index against it row for row.
func buildMapIndexRef(t *Table, pos []int) map[uint64][]int32 {
	codec := newKeyCodec(t.dom, len(pos))
	ref := make(map[uint64][]int32, t.n)
	vals := make([]int, len(pos))
	for r := 0; r < t.n; r++ {
		base := r * t.width
		for i, j := range pos {
			vals[i] = int(t.flat[base+j])
		}
		k := codec.pack(vals)
		ref[k] = append(ref[k], int32(r))
	}
	return ref
}

func randomTable(rng *rand.Rand, n, width, dom int) *Table {
	space := 1
	for i := 0; i < width && space < n; i++ {
		space *= dom
	}
	if n > space {
		n = space
	}
	t := newTable(width, dom)
	row := make([]int, width)
	seen := structure.NewTupleSet(width)
	for seen.Len() < n {
		for i := range row {
			row[i] = rng.Intn(dom)
		}
		if seen.Add(row) {
			t.appendRow(row)
		}
	}
	return t
}

// The open-addressing prefix index must return exactly the reference
// map's row lists — same rows, same (ascending) order — across table
// sizes and prefix widths.
func TestPrefixIndexDifferentialVsMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		dom := 2 + rng.Intn(12)
		width := 1 + rng.Intn(4)
		maxN := dom * dom * width // keep the tuple space saturable
		n := rng.Intn(maxN)
		tb := randomTable(rng, n, width, dom)
		var pos []int
		for j := 0; j < width; j++ {
			if rng.Intn(2) == 0 {
				pos = append(pos, j)
			}
		}
		if len(pos) == 0 {
			pos = []int{rng.Intn(width)}
		}
		ix := tb.prefixIndex(pos)
		if !ix.codec.packed {
			t.Fatalf("trial %d: expected the packed codec", trial)
		}
		ref := buildMapIndexRef(tb, pos)
		for k, want := range ref {
			got := ix.probe(k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: probe(%d) returned %d rows, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: probe(%d)[%d] = %d, want %d", trial, k, i, got[i], want[i])
				}
			}
		}
		// Absent keys (including ones past the packed range) probe empty.
		for miss := 0; miss < 50; miss++ {
			k := rng.Uint64()
			if _, present := ref[k]; present {
				continue
			}
			if got := ix.probe(k); len(got) != 0 {
				t.Fatalf("trial %d: probe(absent %d) = %v, want empty", trial, k, got)
			}
		}
		// Every bound-prefix step of the executor goes through probe, or
		// through lookup (pack, then probe): neither may allocate.
		vals := make([]int, len(pos))
		if avg := testing.AllocsPerRun(20, func() {
			_ = ix.probe(rng.Uint64())
			_ = ix.lookup(vals, nil)
		}); avg != 0 {
			t.Fatalf("trial %d: probe + lookup allocate %.2f objects, want 0", trial, avg)
		}
	}
}

// Index edge cases: empty tables, single-row tables, a fully-bound
// scope (every position in the prefix, so each probe pins one row), and
// the spill codec — each checked against the map reference.
func TestPrefixIndexEdgeCases(t *testing.T) {
	t.Run("EmptyTable", func(t *testing.T) {
		tb := newTable(2, 5)
		ix := tb.prefixIndex([]int{0})
		for k := uint64(0); k < 8; k++ {
			if got := ix.probe(k); len(got) != 0 {
				t.Fatalf("probe(%d) on empty table = %v", k, got)
			}
		}
	})
	t.Run("SingleRow", func(t *testing.T) {
		tb := newTable(3, 7)
		tb.appendRow([]int{4, 2, 6})
		ix := tb.prefixIndex([]int{0, 2})
		if got := ix.probe(ix.codec.pack([]int{4, 6})); len(got) != 1 || got[0] != 0 {
			t.Fatalf("probe(hit) = %v, want [0]", got)
		}
		if got := ix.probe(ix.codec.pack([]int{4, 5})); len(got) != 0 {
			t.Fatalf("probe(miss) = %v, want empty", got)
		}
	})
	t.Run("FullyBoundScope", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		tb := randomTable(rng, 60, 3, 6)
		pos := []int{0, 1, 2}
		ix := tb.prefixIndex(pos)
		ref := buildMapIndexRef(tb, pos)
		for k, want := range ref {
			if len(want) != 1 {
				t.Fatalf("dedup violated: key %d has %d rows", k, len(want))
			}
			got := ix.probe(k)
			if len(got) != 1 || got[0] != want[0] {
				t.Fatalf("probe(%d) = %v, want %v", k, got, want)
			}
		}
	})
	t.Run("SpillCodec", func(t *testing.T) {
		restore := ForcePackedKeyBudget(0)
		defer restore()
		rng := rand.New(rand.NewSource(9))
		tb := randomTable(rng, 80, 3, 6)
		ix := tb.prefixIndex([]int{0, 1})
		if ix.codec.packed {
			t.Fatal("expected the spill codec under a zero budget")
		}
		// The reference is built with an independent scan (the map path
		// itself is the spill implementation, so compare row sets).
		vals := make([]int, 2)
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				vals[0], vals[1] = a, b
				var want []int32
				for r := 0; r < tb.n; r++ {
					if int(tb.flat[r*3]) == a && int(tb.flat[r*3+1]) == b {
						want = append(want, int32(r))
					}
				}
				got := ix.sk[spillKey(vals, nil)]
				if len(got) != len(want) {
					t.Fatalf("spill probe(%d,%d): %v, want %v", a, b, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("spill probe(%d,%d): %v, want %v", a, b, got, want)
					}
				}
			}
		}
	})
}

// The per-table index cache must not grow without bound under a
// pathological workload binding many distinct position subsets, and it
// must keep the most recently probed subsets.
func TestTableIndexCacheCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := randomTable(rng, 50, 12, 3)
	// 12 singleton subsets + pairs: far more masks than the cap.
	for j := 0; j < tb.width; j++ {
		tb.prefixIndex([]int{j})
	}
	for j := 0; j+1 < tb.width; j++ {
		tb.prefixIndex([]int{j, j + 1})
	}
	size := tb.idx.Stats().Len
	if size > tableIndexCacheCap {
		t.Fatalf("index cache holds %d entries, cap %d", size, tableIndexCacheCap)
	}
	// The most recent subset survives (cache hit returns the same index).
	last := []int{tb.width - 2, tb.width - 1}
	ix := tb.prefixIndex(last)
	if ix2 := tb.prefixIndex(last); ix2 != ix {
		t.Fatal("most recently built index was evicted on the next probe")
	}
	// An evicted subset rebuilds correctly.
	ref := buildMapIndexRef(tb, []int{0})
	ix0 := tb.prefixIndex([]int{0})
	for k, want := range ref {
		got := ix0.probe(k)
		if len(got) != len(want) {
			t.Fatalf("rebuilt index probe(%d) = %v, want %v", k, got, want)
		}
	}
}

// Executor differential across the structural edge shapes the bitmap
// and index rewrites touch: empty prefixes (a node whose scope shares
// no bound variable falls back to full enumeration), fully-bound
// scopes, and single-row relations — FPT must agree with the solver.
func TestExecutorEdgeShapesDifferential(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(x) := E(x,x)",                         // single-position, self-loop rows
		"q(x,y) := E(x,y) & E(y,x)",              // fully-bound second step
		"q(x,y,z) := E(x,y) & E(z,z)",            // disconnected: z's table never shares a bound var
		"q(x,y,z,w) := E(x,y) & E(y,z) & E(z,w)", // chain: one-sided prefixes
		"q(x,y,z) := E(x,y) & E(y,z) & E(z,x)",   // cycle: two-sided prefix on the closer
		"q(x,y) := E(x,y) & E(x,x)",              // mixed bound/free on a shared variable
	}
	for seed := int64(0); seed < 3; seed++ {
		b := workload.RandomStructure(sig, 6, 0.5, seed)
		for _, q := range queries {
			p := compilePP(t, sig, q)
			fpt, err := Compile(p, FPT)
			if err != nil {
				t.Fatal(err)
			}
			want := solverCount(p, b)
			got, err := fpt.CountIn(context.Background(), NewSession(b))
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d %q: fpt %v, solver %v", seed, q, got, want)
			}
		}
	}
}
