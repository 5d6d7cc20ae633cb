package structure

import (
	"fmt"
	"slices"
)

// Audit verifies the structure's internal invariants end to end and
// returns the first violation found.  It exists for boot recovery: a
// structure rebuilt from a snapshot or a WAL replay must be
// indistinguishable from one grown in memory, and Audit is the proof.
//
// Checked invariants:
//
//   - the mutation version equals the number of effective mutations,
//     which for a structure grown purely through AddElem/AddTuple (the
//     only mutators) is exactly Size() + NumTuples();
//   - the element index is a bijection between names and [0, Size());
//   - every relation's columns have equal length (its Len), every
//     stored value indexes a live element, the dedup set's cardinality
//     matches, and the per-position posting lists (built first if no
//     read has built them yet) partition exactly the row ids [0, Len()),
//     each list strictly ascending and agreeing with the flat column it
//     indexes; and the bit rows are the tuples' (auditRows).
func (s *Structure) Audit() error {
	if got, want := s.version, uint64(s.Size()+s.NumTuples()); got != want {
		return fmt.Errorf("structure: version %d, but %d elements + %d tuples imply %d",
			got, s.Size(), s.NumTuples(), want)
	}
	if len(s.index) != len(s.elems) {
		return fmt.Errorf("structure: %d elements but %d index entries", len(s.elems), len(s.index))
	}
	for i, name := range s.elems {
		if j, ok := s.index[name]; !ok || j != i {
			return fmt.Errorf("structure: element %q at %d indexed as %d", name, i, j)
		}
	}
	for _, rs := range s.sig.rels {
		r := s.rels[rs.Name]
		if r == nil {
			return fmt.Errorf("structure: relation %s missing its store", rs.Name)
		}
		n := r.Len()
		for p, col := range r.cols {
			if len(col) != n {
				return fmt.Errorf("structure: %s column %d has %d rows, want %d", rs.Name, p, len(col), n)
			}
			for row, v := range col {
				if int(v) < 0 || int(v) >= len(s.elems) {
					return fmt.Errorf("structure: %s[%d][%d] = %d out of universe", rs.Name, p, row, v)
				}
			}
		}
		if r.set.Len() != n {
			return fmt.Errorf("structure: %s dedup set holds %d keys for %d rows", rs.Name, r.set.Len(), n)
		}
		r.buildPosts()
		for p := range r.cols {
			covered := 0
			for v, rows := range r.posts[p] {
				for i, row := range rows {
					if int(row) >= n || r.cols[p][row] != v || i > 0 && row <= rows[i-1] {
						return fmt.Errorf("structure: %s posting list (pos %d, value %d) disagrees with column or does not ascend", rs.Name, p, v)
					}
				}
				covered += len(rows)
			}
			if covered != n {
				return fmt.Errorf("structure: %s position %d posting lists cover %d of %d rows", rs.Name, p, covered, n)
			}
		}
		if err := r.auditRows(s.Size()); err != nil {
			return err
		}
	}
	return nil
}

// auditRows checks the rows against rows laid out afresh from the
// columns: kept or not alike, one per element at a stride that holds a
// row, and equal.
func (r *Relation) auditRows(dom int) error {
	ref := &Relation{arity: r.arity, cols: r.cols}
	ref.fitRows(dom)
	ok := (r.fwd == nil) == (ref.fwd == nil) && r.stride >= ref.stride && len(r.fwd) == dom*r.stride && len(r.bwd) == len(r.fwd)
	for u := 0; ok && u < dom && r.fwd != nil; u++ {
		ok = slices.Equal(r.fwd[u*r.stride:][:ref.stride], ref.fwd[u*ref.stride:][:ref.stride]) &&
			slices.Equal(r.bwd[u*r.stride:][:ref.stride], ref.bwd[u*ref.stride:][:ref.stride])
	}
	if !ok {
		return fmt.Errorf("structure: %s rows (kept %v, stride %d) disagree with its tuples", r.name, r.fwd != nil, r.stride)
	}
	return nil
}
