package engine

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

func compilePP(tb testing.TB, sig *structure.Signature, src string) pp.PP {
	tb.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// firstPredicate returns the plan's first ∃-component predicate
// constraint.
func firstPredicate(tb testing.TB, pl Plan) *planConstraint {
	tb.Helper()
	for _, pc := range pl.(*fptPlan).comps {
		for i := range pc.constraints {
			if pc.constraints[i].pred != nil {
				return &pc.constraints[i]
			}
		}
	}
	tb.Fatal("plan has no predicate constraint")
	return nil
}

// Both engine names compile the one executor, which must agree with the
// solver reference on random structures; every other name is refused,
// even for a formula and a fingerprint whose plans are already cached.
func TestAllEnginesAgreeViaPlanInterface(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)",
		"q(x) := exists u, w. E(x,u) & E(x,w)",
		"q(x,y,z) := E(x,y) & E(z,z)",
		"q(x) := E(x,x) & (exists a, b. E(a,b) & E(b,a))",
	}
	for _, src := range queries {
		p := compilePP(t, sig, src)
		for seed := int64(0); seed < 6; seed++ {
			b := workload.RandomStructure(sig, 4, 0.35, seed)
			want := solverCount(p, b)
			for _, name := range []Name{Auto, FPT} {
				pl, _, err := CompileKeyed(p, src, name)
				if err != nil {
					t.Fatalf("%s: compile %v: %v", src, name, err)
				}
				got, err := pl.CountIn(context.Background(), SessionFor(b))
				if err != nil {
					t.Fatalf("%s engine %v: %v", src, name, err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("%s engine %v seed %d: %v != %v", src, name, seed, got, want)
				}
			}
		}
		if _, err := Compile(p, FPT+1); err == nil {
			t.Fatalf("%s: Compile accepted engine %d", src, FPT+1)
		}
		if _, _, err := CompileKeyed(p, src, FPT+1); err == nil {
			t.Fatalf("%s: CompileKeyed accepted engine %d", src, FPT+1)
		}
	}
}

// The packed-uint64 and wide-bag spill paths must produce identical
// counts: force the spill path by shrinking the key budget to zero.
func TestPackedAndSpillKeysAgree(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(w,x,y,z) := E(w,x) & E(x,y) & E(y,z)",
		"q(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"q(x,y) := exists u. E(x,u) & E(u,y)",
	}
	for _, src := range queries {
		p := compilePP(t, sig, src)
		for seed := int64(0); seed < 6; seed++ {
			b := workload.RandomStructure(sig, 9, 0.3, seed)
			pl, err := Compile(p, FPT)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := pl.CountIn(context.Background(), SessionFor(b))
			if err != nil {
				t.Fatal(err)
			}
			restore := ForcePackedKeyBudget(0)
			spilled, err := pl.CountIn(context.Background(), SessionFor(b))
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if packed.Cmp(spilled) != 0 {
				t.Fatalf("%s seed %d: packed %v != spilled %v", src, seed, packed, spilled)
			}
		}
	}
}

func TestKeyCodecRoundTrip(t *testing.T) {
	for _, domSize := range []int{1, 2, 3, 17, 1000} {
		for width := 0; width <= 6; width++ {
			c := newKeyCodec(domSize, width)
			vals := make([]int, width)
			for i := range vals {
				vals[i] = (i * 7919) % domSize
			}
			if !c.packed {
				continue
			}
			out := make([]int, width)
			c.unpack(c.pack(vals), out)
			for i := range vals {
				if out[i] != vals[i] {
					t.Fatalf("domSize %d width %d: round trip %v != %v", domSize, width, out, vals)
				}
			}
		}
	}
}

// wnum must transparently fall back to big.Int on overflow.
func TestWnumOverflow(t *testing.T) {
	half := wnum{lo: math.MaxInt64/2 + 1}
	sum := addW(half, half)
	if sum.b == nil {
		t.Fatal("int64 addition overflow not detected")
	}
	want := new(big.Int).Add(big.NewInt(math.MaxInt64/2+1), big.NewInt(math.MaxInt64/2+1))
	if sum.toBig().Cmp(want) != 0 {
		t.Fatalf("overflowed sum = %v, want %v", sum.toBig(), want)
	}

	big3 := wnum{lo: 1 << 32}
	prod := mulW(big3, big3)
	if prod.b == nil {
		t.Fatal("int64 multiplication overflow not detected")
	}
	wantP := new(big.Int).Lsh(big.NewInt(1), 64)
	if prod.toBig().Cmp(wantP) != 0 {
		t.Fatalf("overflowed product = %v, want %v", prod.toBig(), wantP)
	}

	// In-range arithmetic stays on the fast path.
	s := addW(wnum{lo: 40}, wnum{lo: 2})
	m := mulW(s, wnum{lo: 100})
	if s.b != nil || m.b != nil || m.lo != 4200 {
		t.Fatalf("fast path: got %+v, %+v", s, m)
	}
	// Mixed-mode arithmetic is exact.
	mixed := mulW(prod, wnum{lo: 3})
	wantM := new(big.Int).Mul(wantP, big.NewInt(3))
	if mixed.toBig().Cmp(wantM) != 0 {
		t.Fatalf("mixed product = %v, want %v", mixed.toBig(), wantM)
	}
}

// End-to-end overflow: counting homomorphisms of a long path into a
// large complete graph with loops exceeds int64 inside the DP and must
// still be exact.  hom(P_k, K_n^loop) = n^(k+1).
func TestExecutorBigIntFallbackEndToEnd(t *testing.T) {
	const n, edges = 41, 12 // 41^13 ≈ 2^69.6 > MaxInt64
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		if _, err := b.AddElem(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if err := b.AddTuple("E", i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Path with every variable liberal: the count is the number of
	// homomorphisms.
	a := structure.New(workload.EdgeSig())
	all := make([]int, edges+1)
	for i := range all {
		v, err := a.AddElem(fmt.Sprintf("x%d", i))
		if err != nil {
			t.Fatal(err)
		}
		all[i] = v
	}
	for i := 0; i < edges; i++ {
		if err := a.AddTuple("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := pp.New(a, all)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.CountIn(context.Background(), SessionFor(b))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(big.NewInt(n), big.NewInt(edges+1), nil)
	if got.Cmp(want) != 0 {
		t.Fatalf("hom(P_%d, K_%d^loop) = %v, want %v", edges, n, got, want)
	}
	if got.IsInt64() {
		t.Fatalf("test is too small to force the big.Int fallback: %v", got)
	}
}

// Sessions share materialized tables across plans and repeated counts,
// and are invalidated by structure mutation.
func TestSessionReuseAndInvalidation(t *testing.T) {
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(x,y) := E(x,y)")
	b := workload.RandomStructure(sig, 5, 0.4, 1)

	s1 := SessionFor(b)
	if s2 := SessionFor(b); s2 != s1 {
		t.Fatal("unchanged structure must reuse its session")
	}
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	before, err := pl.CountIn(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.tables.Stats().Len == 0 {
		t.Fatal("counting materialized no tables in the session")
	}
	if s1.version != b.Version() {
		t.Fatal("session should be valid before mutation")
	}

	// Mutate: the session registry must hand out a fresh session and the
	// count must change accordingly.
	if err := b.AddTuple("E", 0, 0); err != nil {
		t.Fatal(err)
	}
	if s1.version == b.Version() {
		t.Fatal("session should be stale after mutation")
	}
	s3 := SessionFor(b)
	if s3 == s1 {
		t.Fatal("stale session must be replaced")
	}
	after, err := pl.CountIn(context.Background(), s3)
	if err != nil {
		t.Fatal(err)
	}
	wantAfter := new(big.Int).Add(before, big.NewInt(1))
	if after.Cmp(wantAfter) != 0 {
		t.Fatalf("count after adding a loop = %v, want %v", after, wantAfter)
	}

	// Explicit release drops the cached session.
	ReleaseSession(b)
	if s4 := SessionFor(b); s4 == s3 {
		t.Fatal("ReleaseSession must evict the cached session")
	}
}

// An atom table is built without a dedup set because none is needed:
// the projection onto the atom's distinct variables is injective on the
// relation rows that pass its repeated-variable filter, and a relation
// is a set.  So the table has exactly one row per passing relation row,
// in row order, pairwise distinct — also what lets the delta path cut
// "old" from "new" by relation row id (delta.go).
func TestAtomTableOneRowPerPassingRow(t *testing.T) {
	sig := predSig() // E/2 and R/3
	atoms := []string{
		"q(x,y) := E(x,y)", "q(x) := E(x,x)", "q(x,y) := E(y,x)",
		"q(x,y,z) := R(x,y,z)", "q(x,y,z) := R(z,x,y)", "q(x,y) := R(x,y,x)",
		"q(x,y) := R(x,x,y)", "q(x,y) := R(y,x,x)", "q(x) := R(x,x,x)",
	}
	for seed := int64(0); seed < 6; seed++ {
		b := workload.RandomStructure(sig, 3+int(seed)*3, 0.3, seed)
		for _, src := range atoms {
			pl, err := Compile(compilePP(t, sig, src), FPT)
			if err != nil {
				t.Fatal(err)
			}
			c := &pl.(*fptPlan).comps[0].constraints[0]
			tab := NewSession(b).tableFor(c, nil)
			seen := make(map[string]bool)
			r := 0
			b.ForEachTuple(c.rel, func(tup []int) bool {
				want := make([]int, len(c.scope))
				for a, p := range c.atomTmpl {
					for a2, p2 := range c.atomTmpl {
						if p == p2 && tup[a] != tup[a2] {
							return true // fails the repeated-variable filter
						}
					}
					want[p] = tup[a]
				}
				if r >= tab.Len() {
					t.Fatalf("%s seed %d: table has %d rows, relation has more passing rows", src, seed, tab.Len())
				}
				for p, u := range want {
					if got := int(tab.flat[r*tab.width+p]); got != u {
						t.Fatalf("%s seed %d: table row %d = …%d… at column %d, want %v", src, seed, r, got, p, want)
					}
				}
				if key := fmt.Sprint(want); seen[key] {
					t.Fatalf("%s seed %d: projected row %v repeats", src, seed, want)
				} else {
					seen[key] = true
				}
				r++
				return true
			})
			if r != tab.Len() {
				t.Fatalf("%s seed %d: table has %d rows, %d relation rows pass", src, seed, tab.Len(), r)
			}
		}
	}
}

// A plain binary atom over a relation that keeps rows is the store's rows
// themselves: its session table has no cells, and its rows(0) is the
// store's fwd memory — bwd for the reversed atom — at the store's stride,
// here wider than ⌈|B|/64⌉ words after the universe grew.  Every other
// atom's table is tuples, with no rows.
func TestPlainBinaryAtomTableIsStoreRows(t *testing.T) {
	sig := predSig()
	b := GrownRowsStructure(130, 1300, 400, 1)
	fwd, bwd, stride := b.Rel("E").BitRows()
	if fwd == nil || stride <= (b.Size()+63)/64 {
		t.Fatalf("E keeps rows: %v, stride %d over %d elements; want rows wider than the universe's", fwd != nil, stride, b.Size())
	}
	same := func(a, b []uint64) bool { return len(a) == len(b) && &a[0] == &b[0] }
	for _, tc := range []struct {
		src          string
		rows0, rows1 []uint64 // nil: tuples
	}{
		{"q(x,y) := E(x,y)", fwd, bwd},
		{"q(x,y) := E(y,x)", bwd, fwd},
		{"q(x) := E(x,x)", nil, nil},
		{"q(x,y) := R(x,x,y)", nil, nil},
	} {
		pl, err := Compile(compilePP(t, sig, tc.src), FPT)
		if err != nil {
			t.Fatal(err)
		}
		tab := NewSession(b).tableFor(&pl.(*fptPlan).comps[0].constraints[0], nil)
		switch {
		case tc.rows0 == nil:
			if tab.rows(0) != nil || tab.flat == nil {
				t.Errorf("%s: a table on rows, want tuples", tc.src)
			}
		case tab.flat != nil || tab.stride != stride || tab.Len() != b.Rel("E").Len():
			t.Errorf("%s: %d cells, stride %d, %d rows; want none, %d, %d", tc.src, len(tab.flat), tab.stride, tab.Len(), stride, b.Rel("E").Len())
		case !same(tab.rows(0), tc.rows0) || !same(tab.rows(1), tc.rows1):
			t.Errorf("%s: rows(0) and rows(1) are not the store's rows of E", tc.src)
		}
	}
}

func TestRunBounded(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		got := make([]int, 100)
		err := RunBoundedCtx(context.Background(), len(got), workers, func(i int) error {
			got[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not executed", workers, i)
			}
		}
	}
	wantErr := fmt.Errorf("boom")
	err := RunBoundedCtx(context.Background(), 50, 4, func(i int) error {
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}
