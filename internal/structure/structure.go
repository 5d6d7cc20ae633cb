package structure

import (
	"fmt"
	"strconv"
	"strings"
)

// Structure is a finite relational structure: a non-empty universe of named
// elements plus, for each relation symbol of the signature, a set of tuples
// over the universe.  Elements are addressed by dense integer indices;
// names exist for I/O.  A Structure holds data; a pp-formula's body is
// the flat, immutable Atoms, whose Database is a Structure.
//
// Tuples live in per-relation columnar Relation stores: flat columns, a
// packed-key dedup set, per-position posting lists (built on first read)
// and bit rows, kept up to date by AddTuple and AddElem.  Consumers
// iterate with ForEachTuple, or reach the columns and posting lists
// through Rel.
type Structure struct {
	sig   *Signature
	elems []string
	index map[string]int

	// rels holds one columnar store per relation symbol, created eagerly
	// at New so the map itself is never mutated afterwards (reads are
	// safe from concurrent goroutines; mutation via AddTuple/AddFact must
	// still be single-threaded).
	rels map[string]*Relation

	// version counts mutations (element or tuple additions); snapshot
	// consumers such as engine sessions use it to detect staleness without
	// rehashing the structure.
	version uint64
}

// New returns an empty structure over sig.  Note that a structure must have
// at least one element before it is used for counting; Validate enforces
// this.
func New(sig *Signature) *Structure {
	s := &Structure{
		sig:   sig,
		index: make(map[string]int),
		rels:  make(map[string]*Relation, len(sig.rels)),
	}
	for _, r := range sig.rels {
		s.rels[r.Name] = newRelation(r.Name, r.Arity)
	}
	return s
}

// Signature returns the structure's signature.
func (s *Structure) Signature() *Signature { return s.sig }

// Size returns the number of elements in the universe.
func (s *Structure) Size() int { return len(s.elems) }

// ElemName returns the name of element i.
func (s *Structure) ElemName(i int) string { return s.elems[i] }

// ElemNames returns a copy of all element names in index order.
func (s *Structure) ElemNames() []string {
	out := make([]string, len(s.elems))
	copy(out, s.elems)
	return out
}

// ElemIndex returns the index of the named element, or -1.
func (s *Structure) ElemIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// HasElem reports whether the named element exists.
func (s *Structure) HasElem(name string) bool {
	_, ok := s.index[name]
	return ok
}

// AddElem adds a new element and returns its index.  Adding an existing
// name is an error.
func (s *Structure) AddElem(name string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("structure: empty element name")
	}
	if _, dup := s.index[name]; dup {
		return 0, fmt.Errorf("structure: duplicate element %q", name)
	}
	i := len(s.elems)
	s.elems = append(s.elems, name)
	s.index[name] = i
	s.version++
	if i+1 >= RowsMinDom { // below it no relation keeps rows
		for _, r := range s.rels {
			r.fitRows(i + 1)
		}
	}
	return i, nil
}

// Version returns a counter that increases with every effective mutation
// (element or tuple addition).  The counter bumps only when the mutation
// actually changed the structure: adding a duplicate tuple or ensuring an
// existing element is a no-op and leaves the version untouched, so a
// fully-duplicate append batch never invalidates memoized counts.  Two
// calls returning the same value bracket a span in which the structure
// was not modified.
func (s *Structure) Version() uint64 { return s.version }

// EnsureElem returns the index of the named element, adding it if absent.
func (s *Structure) EnsureElem(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i, _ := s.AddElem(name)
	return i
}

// FreshElem adds an element whose name starts with prefix and does not
// collide with any existing element, returning its index.
func (s *Structure) FreshElem(prefix string) int {
	name := prefix
	for n := 0; s.HasElem(name); n++ {
		name = prefix + "#" + strconv.Itoa(n)
	}
	i, _ := s.AddElem(name)
	return i
}

// Rel returns the columnar store of the named relation, or nil if the
// signature lacks it.  The returned Relation is read-only for callers:
// all mutation goes through AddTuple/AddFact.
func (s *Structure) Rel(name string) *Relation { return s.rels[name] }

// AddTuple adds the tuple (given by element indices) to relation rel.
// Duplicate tuples are ignored.  It is an error if the relation is unknown,
// the arity mismatches, or an index is out of range.
func (s *Structure) AddTuple(rel string, t ...int) error {
	r := s.rels[rel]
	if r == nil {
		return fmt.Errorf("structure: unknown relation %q", rel)
	}
	if len(t) != r.arity {
		return fmt.Errorf("structure: relation %s expects arity %d, got %d", rel, r.arity, len(t))
	}
	for _, v := range t {
		if v < 0 || v >= len(s.elems) {
			return fmt.Errorf("structure: element index %d out of range in %s-tuple", v, rel)
		}
	}
	if r.add(t, len(s.elems)) {
		s.version++
	}
	return nil
}

// AddFact adds a tuple given by element names, creating elements as needed.
func (s *Structure) AddFact(rel string, names ...string) error {
	t := make([]int, len(names))
	for i, n := range names {
		t[i] = s.EnsureElem(n)
	}
	return s.AddTuple(rel, t...)
}

// HasTuple reports whether the tuple is in relation rel.
func (s *Structure) HasTuple(rel string, t []int) bool {
	return s.rels[rel].Contains(t)
}

// ForEachTuple visits every tuple of rel in insertion order through a
// reused row buffer (copy to retain).  Returning false stops early.
func (s *Structure) ForEachTuple(rel string, fn func(t []int) bool) {
	s.rels[rel].ForEachTuple(fn)
}

// NumTuples returns the total number of tuples across all relations.
func (s *Structure) NumTuples() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Validate checks the structure invariants (non-empty universe).
func (s *Structure) Validate() error {
	if len(s.elems) == 0 {
		return fmt.Errorf("structure: empty universe")
	}
	return nil
}

// Clone returns a deep copy of the structure.
func (s *Structure) Clone() *Structure {
	c := &Structure{
		sig:     s.sig,
		elems:   append([]string(nil), s.elems...),
		index:   make(map[string]int, len(s.index)),
		rels:    make(map[string]*Relation, len(s.rels)),
		version: s.version,
	}
	for name, i := range s.index {
		c.index[name] = i
	}
	for name, r := range s.rels {
		c.rels[name] = r.clone()
	}
	return c
}

// IsAllLoop reports whether element e carries the "all loops" pattern:
// for every relation R of arity k, the tuple (e,...,e) is present.
func (s *Structure) IsAllLoop(e int) bool {
	for _, r := range s.sig.rels {
		t := make([]int, r.Arity)
		for i := range t {
			t[i] = e
		}
		if !s.HasTuple(r.Name, t) {
			return false
		}
	}
	return true
}

// HasAllLoopElem reports whether some element carries all loops.  Every
// pp-formula has at least one answer on such a structure, a property the
// distinguishing-structure lemmas (5.12/5.13) rely on.
func (s *Structure) HasAllLoopElem() bool {
	for e := range s.elems {
		if s.IsAllLoop(e) {
			return true
		}
	}
	return false
}

// String renders the structure in fact syntax, elements listed first.
func (s *Structure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "universe {%s}", strings.Join(s.elems, ", "))
	for _, r := range s.sig.rels {
		s.ForEachTuple(r.Name, func(t []int) bool {
			b.WriteString("; ")
			b.WriteString(r.Name)
			b.WriteByte('(')
			for i, v := range t {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(s.elems[v])
			}
			b.WriteByte(')')
			return true
		})
	}
	return b.String()
}
