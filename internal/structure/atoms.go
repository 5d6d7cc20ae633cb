package structure

import "slices"

// Atoms is the body of a pp-formula in flat, immutable form: the
// variables, by name, and per relation symbol the atoms over them — the
// canonical database of the formula in Chandra–Merlin's sense, laid out
// as plain arrays.  Cores, entailment and the conjunctions φ_J are
// homomorphism questions between such bodies; the indexed, mutable
// Structure is kept for data.
//
// Variable order and atom order are those of construction (an atom
// repeated there keeps its first place), and an Atoms holds no atom
// twice.  Nothing mutates an Atoms after it is built, so any number of
// goroutines may read it.
type Atoms struct {
	sig   *Signature
	names []string
	off   []int32 // the atoms of relation i (signature order) are args[off[i]:off[i+1]]
	args  []int32 // every atom's arguments, row-major
}

// Signature returns the body's signature.
func (a *Atoms) Signature() *Signature { return a.sig }

// Size returns the number of variables.
func (a *Atoms) Size() int { return len(a.names) }

// ElemName returns the name of variable i.
func (a *Atoms) ElemName(i int) string { return a.names[i] }

// ElemIndex returns the index of the named variable, or -1.  It scans:
// a formula has few variables.
func (a *Atoms) ElemIndex(name string) int { return slices.Index(a.names, name) }

// Args returns the atoms of the i-th relation of the signature as one
// row-major array, arity values an atom, shared and read-only.
func (a *Atoms) Args(i int) []int32 { return a.args[a.off[i]:a.off[i+1]] }

// NumAtoms returns the number of atoms across all relations.
func (a *Atoms) NumAtoms() int {
	n := 0
	for i := range a.sig.rels {
		n += int(a.off[i+1]-a.off[i]) / a.sig.rels[i].Arity
	}
	return n
}

// Induced returns the sub-body on the variables of keep, in their
// original order, with the atoms lying entirely inside keep, and the map
// from old variable indices to new ones (-1 for a dropped variable).
func (a *Atoms) Induced(keep []int) (*Atoms, []int) {
	old2new := make([]int, len(a.names))
	for i := range old2new {
		old2new[i] = -1
	}
	for _, v := range keep {
		old2new[v] = 0
	}
	names := make([]string, 0, len(keep))
	for i, name := range a.names {
		if old2new[i] == 0 {
			old2new[i] = len(names)
			names = append(names, name)
		}
	}
	out := &Atoms{sig: a.sig, names: names}
	out.off, out.args = layout(len(a.sig.rels), len(a.args))
	for i, r := range a.sig.rels {
		out.off[i] = int32(len(out.args))
	atoms:
		for t := a.Args(i); len(t) > 0; t = t[r.Arity:] {
			for _, v := range t[:r.Arity] {
				if old2new[v] < 0 {
					continue atoms
				}
			}
			for _, v := range t[:r.Arity] {
				out.args = append(out.args, int32(old2new[v]))
			}
		}
	}
	out.off[len(a.sig.rels)] = int32(len(out.args))
	return out, old2new
}

// layout returns the offset array of nRels relations and an empty
// argument array with room for nArgs values, carved from one allocation.
func layout(nRels, nArgs int) (off, args []int32) {
	buf := make([]int32, nRels+1+nArgs)
	return buf[: nRels+1 : nRels+1], buf[nRels+1 : nRels+1]
}

// Database returns the canonical database of the body: a Structure with
// its variables as elements and its atoms as tuples, in the same order.
// Products, unions and counting on data take it.
func (a *Atoms) Database() *Structure {
	s := New(a.sig)
	for _, name := range a.names {
		if _, err := s.AddElem(name); err != nil {
			panic(err) // an Atoms names every variable once
		}
	}
	t := make([]int, 0, 8)
	for i, r := range a.sig.rels {
		for args := a.Args(i); len(args) > 0; args = args[r.Arity:] {
			t = t[:0]
			for _, v := range args[:r.Arity] {
				t = append(t, int(v))
			}
			_ = s.AddTuple(r.Name, t...)
		}
	}
	return s
}

// AtomsOf returns the body whose canonical database is s: s's elements
// as variables and its tuples as atoms, in the same order.
func AtomsOf(s *Structure) *Atoms {
	nArgs := 0
	for _, r := range s.sig.rels {
		nArgs += s.rels[r.Name].Len() * r.Arity
	}
	b := NewAtomsBuilder(s.sig, s.ElemNames(), nArgs)
	t := make([]int32, 0, 8)
	for i, r := range s.sig.rels {
		s.ForEachTuple(r.Name, func(tuple []int) bool {
			t = t[:0]
			for _, v := range tuple {
				t = append(t, int32(v))
			}
			b.Add(i, t)
			return true
		})
	}
	return b.Atoms()
}

// AtomsBuilder lays an Atoms out relation by relation: the atoms of the
// i-th relation of the signature are added after those of every
// relation before it.
type AtomsBuilder struct {
	a   *Atoms
	rel int // the relation taking atoms; off[:rel+1] are set
}

// NewAtomsBuilder starts the body over sig whose variable i is named
// names[i], which must be distinct and which the body keeps; nArgs is a
// hint of the number of argument values the atoms hold.
func NewAtomsBuilder(sig *Signature, names []string, nArgs int) *AtomsBuilder {
	a := &Atoms{sig: sig, names: names}
	a.off, a.args = layout(len(sig.rels), nArgs)
	return &AtomsBuilder{a: a}
}

// Add appends the atom of the i-th relation of the signature on the
// variables t (arity values, each a variable index), unless the body
// already holds it.  i may not precede a relation added to before.
func (b *AtomsBuilder) Add(i int, t []int32) {
	for b.rel < i {
		b.rel++
		b.a.off[b.rel] = int32(len(b.a.args))
	}
	for rows := b.a.args[b.a.off[i]:]; len(rows) > 0; rows = rows[len(t):] {
		if slices.Equal(rows[:len(t)], t) {
			return
		}
	}
	b.a.args = append(b.a.args, t...)
}

// Atoms returns the body built.  The builder is done with.
func (b *AtomsBuilder) Atoms() *Atoms {
	for b.rel < len(b.a.sig.rels) {
		b.rel++
		b.a.off[b.rel] = int32(len(b.a.args))
	}
	return b.a
}
