package structure

// Append-delta views over the columnar store.
//
// Relations are append-only (tuples are never removed, elements never
// renamed or dropped), so the state of a structure at an earlier version
// is fully described by its universe size and per-relation row counts at
// that version — a Snapshot.  The rows appended since are then exactly
// the row ranges [old, current) of each relation, which DeltaView
// exposes as cut points.  This is the structural foundation of
// incremental count maintenance: a delta-join executor visits only
// appended tuples instead of re-scanning the relation.

// Snapshot captures the extent of a structure at one version: the
// universe size and the row count of every relation, aligned with
// Signature().Rels().  Taking one is O(#relations); it shares nothing
// with the live structure, so it stays valid across later mutations.
type Snapshot struct {
	// Version is the structure's mutation counter at capture time.
	Version uint64
	// Elems is the universe size at capture time.
	Elems int
	// Rows holds one row count per relation, in Signature().Rels() order.
	Rows []int
}

// Snapshot captures the structure's current extent (universe size and
// per-relation row counts).  Callers that mutate the structure from
// multiple goroutines must hold their write lock; readers under a read
// lock may snapshot freely.
func (s *Structure) Snapshot() Snapshot {
	rels := s.sig.Rels()
	snap := Snapshot{Version: s.version, Elems: len(s.elems), Rows: make([]int, len(rels))}
	for i, r := range rels {
		snap.Rows[i] = s.rels[r.Name].Len()
	}
	return snap
}

// DeltaView is the set of rows appended to a structure since an earlier
// Snapshot: per relation, the old row count (the prefix that existed at
// the snapshot) and the new rows since.  It is a cheap pair of pointers
// — no rows are copied — and remains consistent as long as the
// structure is not mutated while the view is read (the same discipline
// every other read path follows).
type DeltaView struct {
	base Snapshot
	cur  *Structure
	// rowOf maps relation name → snapshot row count (derived from
	// base.Rows at construction, so per-relation lookups are O(1)).
	rowOf map[string]int
}

// DeltaSince returns the view of everything appended since snap.  ok is
// false when snap cannot have come from this structure's history: the
// signature width differs, the snapshot version is ahead of the current
// one, or some snapshot row count exceeds the relation's current length
// (rows are append-only, so a valid snapshot is always a prefix).
func (s *Structure) DeltaSince(snap Snapshot) (DeltaView, bool) {
	rels := s.sig.Rels()
	if len(snap.Rows) != len(rels) || snap.Version > s.version || snap.Elems > len(s.elems) {
		return DeltaView{}, false
	}
	rowOf := make(map[string]int, len(rels))
	for i, r := range rels {
		n := snap.Rows[i]
		if n > s.rels[r.Name].Len() {
			return DeltaView{}, false
		}
		rowOf[r.Name] = n
	}
	return DeltaView{base: snap, cur: s, rowOf: rowOf}, true
}

// OldRows returns rel's row count at the snapshot (0 for unknown
// relations).
func (d DeltaView) OldRows(rel string) int { return d.rowOf[rel] }

// NewRows returns the number of rows appended to rel since the snapshot.
func (d DeltaView) NewRows(rel string) int {
	r := d.cur.Rel(rel)
	if r == nil {
		return 0
	}
	return r.Len() - d.rowOf[rel]
}

// TuplesAdded returns the total number of rows appended across all
// relations since the snapshot.
func (d DeltaView) TuplesAdded() int {
	n := 0
	for _, r := range d.cur.sig.Rels() {
		n += d.NewRows(r.Name)
	}
	return n
}
