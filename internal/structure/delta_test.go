package structure

import (
	"fmt"
	"testing"
)

func edgeCSig(t *testing.T) *Signature {
	t.Helper()
	sig, err := NewSignature(RelSym{Name: "E", Arity: 2}, RelSym{Name: "C", Arity: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func TestSnapshotDeltaView(t *testing.T) {
	s := New(edgeCSig(t))
	for i := 0; i < 4; i++ {
		if _, err := s.AddElem(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd := func(rel string, tup ...int) {
		t.Helper()
		if err := s.AddTuple(rel, tup...); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("E", 0, 1)
	mustAdd("E", 1, 2)
	mustAdd("C", 2)

	snap := s.Snapshot()
	if snap.Version != s.Version() || snap.Elems != 4 {
		t.Fatalf("snapshot = %+v, want version %d, 4 elems", snap, s.Version())
	}

	// Appends after the snapshot: one duplicate (invisible in the delta),
	// two new tuples, one new element.
	mustAdd("E", 0, 1) // duplicate
	mustAdd("E", 2, 3)
	s.EnsureElem("v4")
	mustAdd("E", 3, 4)

	dv, ok := s.DeltaSince(snap)
	if !ok {
		t.Fatal("DeltaSince rejected a valid snapshot")
	}
	if dv.OldRows("E") != 2 || dv.NewRows("E") != 2 {
		t.Fatalf("E delta = old %d new %d, want old 2 new 2", dv.OldRows("E"), dv.NewRows("E"))
	}
	if dv.NewRows("C") != 0 {
		t.Fatalf("C delta = %d new rows, want 0", dv.NewRows("C"))
	}
	if dv.TuplesAdded() != 2 || s.Size()-snap.Elems != 1 {
		t.Fatalf("delta totals = %d tuples, %d elems, want 2, 1", dv.TuplesAdded(), s.Size()-snap.Elems)
	}
	var got [][]int
	s.Rel("E").ForEachTupleIn(dv.OldRows("E"), s.Rel("E").Len(), func(tu []int) bool {
		got = append(got, append([]int(nil), tu...))
		return true
	})
	want := [][]int{{2, 3}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("delta tuples = %v, want %v", got, want)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("delta tuples = %v, want %v", got, want)
			}
		}
	}
}

func TestDeltaSinceRejectsForeignSnapshot(t *testing.T) {
	s := New(edgeCSig(t))
	s.EnsureElem("a")
	if err := s.AddTuple("E", 0, 0); err != nil {
		t.Fatal(err)
	}
	// A snapshot "from the future" (row counts beyond the current
	// extent) cannot be from this structure's history.
	bad := s.Snapshot()
	bad.Rows[0] += 5
	if _, ok := s.DeltaSince(bad); ok {
		t.Fatal("DeltaSince accepted a snapshot with impossible row counts")
	}
	wrongWidth := Snapshot{Version: 0, Elems: 0, Rows: []int{0}}
	if _, ok := s.DeltaSince(wrongWidth); ok {
		t.Fatal("DeltaSince accepted a snapshot with the wrong relation count")
	}
}

// TestDuplicateAppendKeepsVersion pins the memo-invalidation contract of
// Version(): re-adding existing tuples and elements is a no-op and must
// not bump the version, so a fully-duplicate append batch never
// invalidates sessions or memoized counts.
func TestDuplicateAppendKeepsVersion(t *testing.T) {
	s := New(edgeCSig(t))
	s.EnsureElem("a")
	s.EnsureElem("b")
	if err := s.AddTuple("E", 0, 1); err != nil {
		t.Fatal(err)
	}
	v := s.Version()
	if err := s.AddTuple("E", 0, 1); err != nil {
		t.Fatal(err)
	}
	s.EnsureElem("a")
	if err := s.AddFact("E", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if s.Version() != v {
		t.Fatalf("duplicate appends bumped the version: %d -> %d", v, s.Version())
	}
	if err := s.AddTuple("E", 1, 0); err != nil {
		t.Fatal(err)
	}
	if s.Version() == v {
		t.Fatal("a genuinely new tuple must bump the version")
	}
}

func TestForEachTupleInRanges(t *testing.T) {
	s := New(edgeCSig(t))
	for i := 0; i < 5; i++ {
		s.EnsureElem(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 4; i++ {
		if err := s.AddTuple("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Rel("E")
	count := func(lo, hi int) int {
		n := 0
		r.ForEachTupleIn(lo, hi, func([]int) bool { n++; return true })
		return n
	}
	if got := count(0, r.Len()); got != 4 {
		t.Fatalf("full range visited %d rows, want 4", got)
	}
	if got := count(2, r.Len()); got != 2 {
		t.Fatalf("suffix range visited %d rows, want 2", got)
	}
	if got := count(3, 100); got != 1 {
		t.Fatalf("clamped range visited %d rows, want 1", got)
	}
	if got := count(4, 2); got != 0 {
		t.Fatalf("empty range visited %d rows, want 0", got)
	}
}
