package structure

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
	if got := len(r.RowsWith(0, 0)); got != 2 {
		t.Fatalf("len(RowsWith(0,0)) = %d, want 2", got)
	}
	if got := len(r.RowsWith(1, 2)); got != 2 {
		t.Fatalf("len(RowsWith(1,2)) = %d, want 2", got)
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
		rows := s.Rel("E").RowsWith(0, 0)
		for _, r := range rows {
			if v := s.Rel("E").Value(int(r), 0); v != 0 {
				t.Fatalf("RowsWith listed row %d with pos0 = %d", r, v)
			}
		}
		if len(rows) != i+1 {
			t.Fatalf("after %d inserts: RowsWith listed %d rows", i+1, len(rows))
		}
	}
}

// A posting list must hold exactly the rows a filtered full iteration
// yields, in the same (insertion) order.
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
			for _, r := range s.Rel("T").RowsWith(pos, v) {
				got = append(got, s.Rel("T").Row(int(r), make([]int, 3)))
			}
			if len(got) != len(want) {
				t.Fatalf("pos %d val %d: RowsWith %d rows, filtered scan %d", pos, v, len(got), len(want))
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

// TestRowsWithConcurrentFirstRead has many goroutines make the first
// RowsWith calls on a freshly loaded relation at once: the lists are
// built once, and every reader sees all of them.  Run under -race.
func TestRowsWithConcurrentFirstRead(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New(relTestSig())
	const n = 30
	for i := 0; i < n; i++ {
		s.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < 400; i++ {
		_ = s.AddTuple("T", rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	r := s.Rel("T")
	if r.built.Load() {
		t.Fatal("posting lists built before the first read")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pos := 0; pos < 3; pos++ {
				covered := 0
				for k := 0; k < n; k++ {
					v := (k + g) % n
					rows := r.RowsWith(pos, v)
					for i, row := range rows {
						if r.Value(int(row), pos) != v || i > 0 && row <= rows[i-1] {
							errs <- fmt.Sprintf("goroutine %d: RowsWith(%d, %d) = %v", g, pos, v, rows)
							return
						}
					}
					covered += len(rows)
				}
				if covered != r.Len() {
					errs <- fmt.Sprintf("goroutine %d: position %d lists cover %d of %d rows", g, pos, covered, r.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestRowsWithAfterAppendAscends reads the posting lists, appends, and
// reads again: the lists built by the first read are maintained, so the
// rows appended since are listed after the old ones, in ascending order —
// what the engine's delta walk relies on when it stops at a row cut.  A
// relation read while empty is maintained from its first row.
func TestRowsWithAfterAppendAscends(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := New(relTestSig())
	const n = 12
	for i := 0; i < n; i++ {
		s.EnsureElem(fmt.Sprintf("e%d", i))
	}
	e := s.Rel("E")
	if rows := e.RowsWith(0, 0); rows != nil {
		t.Fatalf("empty relation lists %v", rows)
	}
	for round := 0; round < 4; round++ {
		cut := e.Len()
		for i := 0; i < 40; i++ {
			_ = s.AddTuple("E", rng.Intn(n), rng.Intn(n))
			_ = s.AddTuple("T", rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		if round == 1 {
			s.Rel("T").RowsWith(2, 0) // T's lists are built mid-stream
		}
		for _, name := range []string{"E", "T"} {
			r := s.Rel(name)
			arity, _ := s.Signature().Arity(name)
			for pos := 0; pos < arity; pos++ {
				for v := 0; v < n; v++ {
					var want []int32
					for row := 0; row < r.Len(); row++ {
						if r.Value(row, pos) == v {
							want = append(want, int32(row))
						}
					}
					if got := r.RowsWith(pos, v); !slices.Equal(got, want) {
						t.Fatalf("round %d: %s.RowsWith(%d, %d) = %v, want %v", round, name, pos, v, got, want)
					}
				}
			}
		}
		if round > 0 && e.Len() == cut {
			t.Fatalf("round %d appended nothing to E", round)
		}
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneBuildsListsOnlyIfTheSourceDid: a clone of a relation nobody
// has read keeps its lists unbuilt, and reading it leaves the source
// unbuilt too.
func TestCloneBuildsListsOnlyIfTheSourceDid(t *testing.T) {
	s := New(relTestSig())
	for i := 0; i < 3; i++ {
		s.EnsureElem(fmt.Sprintf("e%d", i))
	}
	_ = s.AddTuple("E", 0, 1)
	_ = s.AddTuple("E", 0, 2)
	c := s.Clone()
	if c.Rel("E").built.Load() {
		t.Fatal("a clone of an unread relation has posting lists")
	}
	if got := c.Rel("E").RowsWith(0, 0); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("clone's RowsWith(0, 0) = %v", got)
	}
	if s.Rel("E").built.Load() {
		t.Fatal("reading the clone built the source's posting lists")
	}
	if d := c.Clone(); !d.Rel("E").built.Load() || !slices.Equal(d.Rel("E").RowsWith(0, 0), []int32{0, 1}) {
		t.Fatal("a clone of a read relation lost its posting lists")
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

	// The all-zero tuple packs to key 0, a key like any other.
	zero := NewTupleSet(3)
	if zero.Contains([]int{0, 0, 0}) || !zero.Add([]int{0, 0, 0}) || zero.Add([]int{0, 0, 0}) ||
		!zero.Contains([]int{0, 0, 0}) || zero.Contains([]int{0, 0, 1}) || zero.Len() != 1 {
		t.Fatal("all-zero tuple dedup broken")
	}

	// Width 0 (a negative width clamps to it) holds the empty tuple once.
	for _, width := range []int{0, -1} {
		empty := NewTupleSet(width)
		if empty.Contains(nil) || !empty.Add(nil) || empty.Add(nil) || !empty.Contains(nil) || empty.Len() != 1 {
			t.Fatalf("width %d: empty-tuple set broken", width)
		}
	}

	// 2^(64/width) − 1 is the largest value that packs; one more spills.
	for _, width := range []int{2, 3, 5, 64} {
		edge := NewTupleSet(width)
		top := 1<<(64/width) - 1
		tup := make([]int, width)
		for i := range tup {
			tup[i] = top
		}
		if !edge.Add(tup) || edge.Add(tup) || len(edge.packed) != 1 || edge.sk != nil {
			t.Fatalf("width %d: %d should pack", width, top)
		}
		tup[0] = top + 1
		if edge.Contains(tup) || !edge.Add(tup) || edge.Add(tup) || len(edge.packed) != 1 || len(edge.sk) != 1 {
			t.Fatalf("width %d: %d should spill", width, top+1)
		}
		if edge.Len() != 2 {
			t.Fatalf("width %d: Len = %d, want 2", width, edge.Len())
		}
	}

	// A clone shares nothing with its original, packed or spilled.
	c := ts.clone()
	if !c.Add([]int{3, 4}) || !c.Add([]int{big, 1}) || ts.Contains([]int{3, 4}) || ts.Contains([]int{big, 1}) || ts.Len() != 2 {
		t.Fatal("tuples added to a clone reached the original")
	}
	if !ts.Add([]int{5, 6}) || !ts.Add([]int{big, 2}) || c.Contains([]int{5, 6}) || c.Contains([]int{big, 2}) || c.Len() != 4 {
		t.Fatal("tuples added to the original reached a clone")
	}
}

// Audit proves the posting lists: each corruption that keeps the column
// intact but breaks a list — order, a duplicate, a value, a dropped row —
// is an error.  The swap and the duplicate keep every listed row under
// its value and the row count whole, so only the ascent check sees them.
func TestAuditRejectsCorruptPostingLists(t *testing.T) {
	s := New(relTestSig())
	for i := 0; i < 4; i++ {
		s.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {0, 3}} {
		if err := s.AddTuple("E", e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(posts map[int32][]int32)
	}{
		{"swap", func(posts map[int32][]int32) {
			rows := posts[0]
			rows[0], rows[1] = rows[1], rows[0]
		}},
		{"duplicate", func(posts map[int32][]int32) {
			rows := posts[0]
			rows[1] = rows[0]
		}},
		{"wrong value", func(posts map[int32][]int32) {
			rows := posts[0]
			posts[0], posts[1] = rows[:len(rows)-1], append(posts[1], rows[len(rows)-1])
		}},
		{"drop", func(posts map[int32][]int32) {
			posts[0] = posts[0][1:]
		}},
	} {
		c := s.Clone()
		tc.corrupt(c.rels["E"].posts[0])
		if err := c.Audit(); err == nil {
			t.Errorf("%s: Audit accepted a corrupt posting list", tc.name)
		}
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("corrupting clones reached the original: %v", err)
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
	if len(s.Rel("E").RowsWith(0, 1)) != 0 || len(c.Rel("E").RowsWith(0, 1)) != 1 {
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
}
