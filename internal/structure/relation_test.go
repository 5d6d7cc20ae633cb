package structure

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func relTestSig() *Signature {
	return MustSignature(
		RelSym{Name: "E", Arity: 2},
		RelSym{Name: "T", Arity: 3},
	)
}

func TestRelationColumnsAndPostings(t *testing.T) {
	s := New(relTestSig())
	for i := 0; i < 5; i++ {
		s.EnsureElem("e" + string(rune('0'+i)))
	}
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 0}, {0, 1}} // last is a dup
	for _, e := range edges {
		if err := s.AddTuple("E", e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Rel("E")
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (dup ignored)", r.Len())
	}
	if got := r.RowsWith(0, 0).Len(); got != 2 {
		t.Fatalf("RowsWith(0,0).Len() = %d, want 2", got)
	}
	if got := r.RowsWith(1, 2).Len(); got != 2 {
		t.Fatalf("RowsWith(1,2).Len() = %d, want 2", got)
	}
	// Columns align with insertion order.
	if r.Value(2, 0) != 0 || r.Value(2, 1) != 2 {
		t.Fatalf("row 2 = (%d,%d), want (0,2)", r.Value(2, 0), r.Value(2, 1))
	}
	if !r.Contains([]int{2, 0}) || r.Contains([]int{1, 0}) {
		t.Fatal("Contains wrong")
	}
}

func TestPostingListsAreIncremental(t *testing.T) {
	s := New(relTestSig())
	for i := 0; i < 10; i++ {
		s.EnsureElem("e" + string(rune('0'+i)))
	}
	// Interleave mutations and indexed reads: every read must see all
	// prior inserts without a rebuild.
	for i := 0; i < 9; i++ {
		if err := s.AddTuple("E", 0, i); err != nil {
			t.Fatal(err)
		}
		n := 0
		s.ForEachWith("E", 0, 0, func(u []int) bool {
			if u[0] != 0 {
				t.Fatalf("ForEachWith yielded row with pos0 = %d", u[0])
			}
			n++
			return true
		})
		if n != i+1 {
			t.Fatalf("after %d inserts: ForEachWith saw %d rows", i+1, n)
		}
	}
}

// The posting-list walk must yield exactly the rows a filtered full
// iteration yields, in the same (insertion) order.
func TestForEachWithMatchesFilteredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(relTestSig())
	const n = 20
	for i := 0; i < n; i++ {
		s.EnsureElem("x" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 0; i < 150; i++ {
		_ = s.AddTuple("T", rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	for pos := 0; pos < 3; pos++ {
		for v := 0; v < n; v++ {
			var want, got [][]int
			s.ForEachTuple("T", func(u []int) bool {
				if u[pos] == v {
					want = append(want, append([]int(nil), u...))
				}
				return true
			})
			s.ForEachWith("T", pos, v, func(u []int) bool {
				got = append(got, append([]int(nil), u...))
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("pos %d val %d: ForEachWith %d rows, filtered scan %d", pos, v, len(got), len(want))
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("pos %d val %d row %d differs: %v vs %v", pos, v, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestTupleSetPackedAndSpill(t *testing.T) {
	ts := NewTupleSet(2) // 32 bits per value
	if !ts.Add([]int{1, 2}) || ts.Add([]int{1, 2}) {
		t.Fatal("packed dedup broken")
	}
	big := 1 << 40 // exceeds the 32-bit per-value budget: spill path
	if !ts.Add([]int{big, 0}) || ts.Add([]int{big, 0}) {
		t.Fatal("spill dedup broken")
	}
	if !ts.Contains([]int{1, 2}) || !ts.Contains([]int{big, 0}) || ts.Contains([]int{2, 1}) {
		t.Fatal("Contains wrong")
	}
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}
	// Wide tuples (width > 64) always take the spill path.
	wide := NewTupleSet(70)
	w := make([]int, 70)
	if !wide.Add(w) || wide.Add(w) {
		t.Fatal("wide dedup broken")
	}
	w[69] = 1
	if !wide.Add(w) {
		t.Fatal("wide distinct tuple rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New(relTestSig())
	for i := 0; i < 4; i++ {
		s.EnsureElem("e" + string(rune('0'+i)))
	}
	_ = s.AddTuple("E", 0, 1)
	c := s.Clone()
	_ = c.AddTuple("E", 1, 2)
	if s.Rel("E").Len() != 1 || c.Rel("E").Len() != 2 {
		t.Fatalf("clone not independent: orig %d, clone %d", s.Rel("E").Len(), c.Rel("E").Len())
	}
	if s.Rel("E").RowsWith(0, 1).Len() != 0 || c.Rel("E").RowsWith(0, 1).Len() != 1 {
		t.Fatal("clone postings not independent")
	}
	if !Equal(s.Clone(), s) {
		t.Fatal("clone not equal to original")
	}
}

// A binary relation's value-space rows follow the structure through
// every boundary of the rule: none below RowsMinDom, laid out once the
// universe reaches it or the tuples reach BitRowsFit, dropped when the
// universe outgrows the rule, and re-laid out at a doubled stride when it
// outgrows the stride.  Audit proves rows = tuples after every mutation,
// and Clone and Induced carry equal rows.
func TestBitRowsMaintained(t *testing.T) {
	s := New(relTestSig())
	rng := rand.New(rand.NewSource(5))
	var strides []int
	add := func() {
		if err := s.AddTuple("E", rng.Intn(s.Size()), rng.Intn(s.Size())); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		if err := s.Audit(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if _, _, st := s.Rel("E").BitRows(); st > 0 && (len(strides) == 0 || strides[len(strides)-1] != st) {
			strides = append(strides, st)
		}
	}
	for i := 0; i < 260; i++ { // 3 tuples an element up to 64, then elements alone
		s.EnsureElem(fmt.Sprintf("v%d", i))
		check(fmt.Sprintf("element %d", i))
		for k := 0; i < 64 && k < 3; k++ {
			add()
			check(fmt.Sprintf("tuple at %d elements", i+1))
		}
	}
	if fwd, _, _ := s.Rel("E").BitRows(); fwd != nil {
		t.Fatal("260 elements and ≤ 192 tuples: E should be too sparse for rows")
	}
	for s.Rel("E").Len() < 260*5/5 {
		add()
	}
	check("after densifying")
	if fwd, _, _ := s.Rel("E").BitRows(); fwd == nil {
		t.Fatal("E fits its rows again but keeps none")
	}
	if fwd, _, _ := s.Rel("T").BitRows(); fwd != nil {
		t.Fatal("a ternary relation keeps rows")
	}
	if fmt.Sprint(strides) != "[1 2 4 5]" {
		t.Fatalf("strides %v, want [1 2 4 5]: one word from 64 elements, doubling as the universe crosses 64 and 128, then ⌈260/64⌉ when laid out afresh", strides)
	}

	c := s.Clone()
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	equalRows := func(a, b *Structure) bool {
		af, ab, as := a.Rel("E").BitRows()
		bf, bb, bs := b.Rel("E").BitRows()
		return as == bs && slices.Equal(af, bf) && slices.Equal(ab, bb)
	}
	if !equalRows(s, c) {
		t.Fatal("Clone's rows differ")
	}
	if err := c.AddTuple("E", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("a tuple added to the clone reached the original: %v", err)
	}
	all := make([]int, s.Size())
	for i := range all {
		all[i] = i
	}
	if in, _ := s.Induced(all); !equalRows(s, in) {
		t.Fatal("Induced on every element has different rows")
	}
	if in, _ := s.Induced(all[:100]); in.Audit() != nil {
		t.Fatalf("Induced on 100 elements: %v", in.Audit())
	}
}
