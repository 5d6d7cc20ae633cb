package structure

import (
	"math/rand"
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
