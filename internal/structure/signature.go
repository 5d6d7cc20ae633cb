package structure

import (
	"fmt"
	"sort"
	"strings"
)

// RelSym is a relation symbol: a name together with a positive arity.
type RelSym struct {
	Name  string
	Arity int
}

// Signature is a finite, purely relational vocabulary.  Relation symbols
// are kept sorted by name so iteration order is deterministic.
type Signature struct {
	rels  []RelSym
	index map[string]int
	text  string // String(), rendered once: signatures are immutable
}

// NewSignature builds a signature from the given relation symbols.
// It rejects duplicate names, empty names, and non-positive arities.
func NewSignature(rels ...RelSym) (*Signature, error) {
	s := &Signature{index: make(map[string]int, len(rels))}
	sorted := make([]RelSym, len(rels))
	copy(sorted, rels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, r := range sorted {
		if r.Name == "" {
			return nil, fmt.Errorf("structure: empty relation name")
		}
		if r.Arity < 1 {
			return nil, fmt.Errorf("structure: relation %s has non-positive arity %d", r.Name, r.Arity)
		}
		if _, dup := s.index[r.Name]; dup {
			return nil, fmt.Errorf("structure: duplicate relation %s", r.Name)
		}
		s.index[r.Name] = len(s.rels)
		s.rels = append(s.rels, r)
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.rels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s/%d", r.Name, r.Arity)
	}
	b.WriteByte('}')
	s.text = b.String()
	return s, nil
}

// MustSignature is NewSignature but panics on error; for tests and
// literals whose validity is known statically.
func MustSignature(rels ...RelSym) *Signature {
	s, err := NewSignature(rels...)
	if err != nil {
		panic(err)
	}
	return s
}

// Rels returns the relation symbols in sorted name order.
func (s *Signature) Rels() []RelSym {
	out := make([]RelSym, len(s.rels))
	copy(out, s.rels)
	return out
}

// NumRels returns the number of relation symbols.
func (s *Signature) NumRels() int { return len(s.rels) }

// Rel returns the i-th relation symbol in sorted name order: the
// copy-free counterpart of Rels for loops on the serving path.
func (s *Signature) Rel(i int) RelSym { return s.rels[i] }

// Arity returns the arity of the named relation and whether it exists.
func (s *Signature) Arity(name string) (int, bool) {
	i, ok := s.index[name]
	if !ok {
		return 0, false
	}
	return s.rels[i].Arity, true
}

// Has reports whether the signature contains the named relation.
func (s *Signature) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Equal reports whether two signatures have the same symbols and arities.
func (s *Signature) Equal(t *Signature) bool {
	if s == t {
		return true
	}
	if t == nil || len(s.rels) != len(t.rels) {
		return false
	}
	for i, r := range s.rels {
		if t.rels[i] != r {
			return false
		}
	}
	return true
}

// Restrict returns the sub-signature containing only the named relations
// for which keep returns true.
func (s *Signature) Restrict(keep func(RelSym) bool) *Signature {
	var kept []RelSym
	for _, r := range s.rels {
		if keep(r) {
			kept = append(kept, r)
		}
	}
	return MustSignature(kept...)
}

// String renders the signature as, e.g., "{E/2, F/1}".
func (s *Signature) String() string { return s.text }

// Index returns the position of the named relation in sorted name order
// and whether the signature has it.
func (s *Signature) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}
