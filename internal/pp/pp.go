package pp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/logic"
	"repro/internal/structure"
)

// PP is a prenex pp-formula (A, S): A's elements are variables, S ⊆ A is
// the set of liberal variables (stored as sorted element indices).
// Elements of A ∖ S are existentially quantified.
type PP struct {
	A *structure.Structure
	S []int

	// coredAt is A.Version()+1 as of the moment the formula was found to
	// be its own core (0: not known), so the mark lapses if A is mutated.
	coredAt uint64
}

// New validates and returns a PP over the given structure and liberal set.
func New(a *structure.Structure, s []int) (PP, error) {
	if err := a.Validate(); err != nil {
		return PP{}, err
	}
	seen := make(map[int]bool, len(s))
	for _, v := range s {
		if v < 0 || v >= a.Size() {
			return PP{}, fmt.Errorf("pp: liberal index %d out of range", v)
		}
		if seen[v] {
			return PP{}, fmt.Errorf("pp: duplicate liberal index %d", v)
		}
		seen[v] = true
	}
	return PP{A: a, S: hom.SortElems(s)}, nil
}

// FromDisjunct builds the pair view of a prenex pp disjunct over the given
// liberal variables.  The universe is lib ∪ (variables of the disjunct);
// liberal variables missing from every atom become isolated elements, as
// in Example 2.2 (the variable z there).
func FromDisjunct(sig *structure.Signature, lib []logic.Var, d logic.Disjunct) (PP, error) {
	a := structure.New(sig)
	s := make([]int, 0, len(lib))
	for _, v := range lib {
		i, err := a.AddElem(string(v))
		if err != nil {
			return PP{}, err
		}
		s = append(s, i)
	}
	for _, v := range d.Exist {
		if _, err := a.AddElem(string(v)); err != nil {
			return PP{}, fmt.Errorf("pp: quantified variable %s collides: %v", v, err)
		}
	}
	for _, at := range d.Atoms {
		ar, ok := sig.Arity(at.Rel)
		if !ok {
			return PP{}, fmt.Errorf("pp: atom uses unknown relation %s", at.Rel)
		}
		if ar != len(at.Args) {
			return PP{}, fmt.Errorf("pp: atom %s has %d args, arity is %d", at.Rel, len(at.Args), ar)
		}
		t := make([]int, len(at.Args))
		for j, v := range at.Args {
			idx := a.ElemIndex(string(v))
			if idx < 0 {
				return PP{}, fmt.Errorf("pp: atom variable %s neither liberal nor quantified", v)
			}
			t[j] = idx
		}
		if err := a.AddTuple(at.Rel, t...); err != nil {
			return PP{}, err
		}
	}
	return New(a, s)
}

// ToDisjunct converts back to the logic view (existential variables are
// A ∖ S in index order).
func (p PP) ToDisjunct() logic.Disjunct {
	inS := p.sSet()
	var d logic.Disjunct
	for i := 0; i < p.A.Size(); i++ {
		if !inS[i] {
			d.Exist = append(d.Exist, logic.Var(p.A.ElemName(i)))
		}
	}
	for _, r := range p.A.Signature().Rels() {
		p.A.ForEachTuple(r.Name, func(t []int) bool {
			args := make([]logic.Var, len(t))
			for j, v := range t {
				args[j] = logic.Var(p.A.ElemName(v))
			}
			d.Atoms = append(d.Atoms, logic.Atom{Rel: r.Name, Args: args})
			return true
		})
	}
	return d
}

// LibNames returns the liberal variable names in element-index order.
func (p PP) LibNames() []string {
	out := make([]string, len(p.S))
	for i, v := range p.S {
		out[i] = p.A.ElemName(v)
	}
	return out
}

func (p PP) sSet() []bool {
	in := make([]bool, p.A.Size())
	for _, v := range p.S {
		in[v] = true
	}
	return in
}

// forEachAtom visits every tuple of every relation of A through a reused
// buffer.
func (p PP) forEachAtom(fn func(t []int)) {
	sig := p.A.Signature()
	for i := 0; i < sig.NumRels(); i++ {
		p.A.ForEachTuple(sig.Rel(i).Name, func(t []int) bool {
			fn(t)
			return true
		})
	}
}

// String renders the formula as "(x,y) | exists u. E(x,u) & E(u,y)".
func (p PP) String() string {
	d := p.ToDisjunct()
	return "(" + strings.Join(p.LibNames(), ",") + ") | " + d.String()
}

// FreeElems returns the liberal elements that occur in at least one atom:
// these are exactly free(φ).
func (p PP) FreeElems() []int {
	occurs := make([]bool, p.A.Size())
	p.forEachAtom(func(t []int) {
		for _, v := range t {
			occurs[v] = true
		}
	})
	var out []int
	for _, v := range p.S {
		if occurs[v] {
			out = append(out, v)
		}
	}
	return out
}

// IsSentence reports free(φ) = ∅: no liberal variable occurs in an atom.
// (Liberal variables may still exist; they are isolated.)
func (p PP) IsSentence() bool { return len(p.FreeElems()) == 0 }

// IsFree reports free(φ) ≠ ∅.
func (p PP) IsFree() bool { return !p.IsSentence() }

// Graph returns the Gaifman graph of the formula: vertices are all of A's
// elements, edges join elements co-occurring in a tuple (Section 2.1
// "Graphs").
func (p PP) Graph() *graph.Graph {
	g := graph.New(p.A.Size())
	p.forEachAtom(g.AddClique)
	return g
}

// Components splits the formula into its components (Section 2.1): one PP
// per connected component of the Gaifman graph, with S restricted to the
// component.  For any structure B, |φ(B)| = ∏ᵢ |φᵢ(B)|.
func (p PP) Components() []PP { return p.split(p.Graph().Components()) }

// split returns the subformulas induced on the given non-empty vertex
// sets, each with S restricted to it.
func (p PP) split(comps [][]int) []PP {
	out := make([]PP, 0, len(comps))
	for _, c := range comps {
		sub, old2new := p.A.Induced(c)
		var s []int
		for _, v := range p.S {
			if old2new[v] >= 0 {
				s = append(s, old2new[v])
			}
		}
		out = append(out, PP{A: sub, S: s})
	}
	return out
}

// Hat returns φ̂: the formula obtained by removing every non-liberal
// component (a component without liberal variables), cf. Example 5.8 and
// Proposition 5.10.  Only defined for liberal formulas.
func (p PP) Hat() (PP, error) {
	if len(p.S) == 0 {
		return PP{}, fmt.Errorf("pp: Hat undefined for non-liberal formula")
	}
	inS := p.sSet()
	var keep []int
	for _, c := range p.Graph().Components() {
		if slices.ContainsFunc(c, func(v int) bool { return inS[v] }) {
			keep = append(keep, c...)
		}
	}
	return p.split([][]int{keep})[0], nil
}

// libPins maps every liberal element of q to the liberal element of p
// carrying the same name.  Pinning q's liberal variables this way is the
// constraint-solver form of the augmented structures aug(A,S) of Section
// 2.1 (a singleton relation R_a = {a} per liberal variable): a pinned
// homomorphism q.A → p.A is exactly a homomorphism aug(q) → aug(p).
func libPins(q, p PP) (map[int]int, error) {
	if !p.A.Signature().Equal(q.A.Signature()) {
		return nil, fmt.Errorf("pp: entailment across different signatures")
	}
	pin := make(map[int]int, len(q.S))
	for _, v := range q.S {
		w := p.A.ElemIndex(q.A.ElemName(v))
		if i := sort.SearchInts(p.S, w); i < len(p.S) && p.S[i] == w {
			pin[v] = w
		}
	}
	if len(pin) != len(q.S) || len(p.S) != len(q.S) {
		return nil, fmt.Errorf("pp: entailment requires identical liberal variables (got %v vs %v)", p.LibNames(), q.LibNames())
	}
	return pin, nil
}

// Entails reports whether p logically entails q, i.e. every answer of p is
// an answer of q on every structure.  By Theorem 2.3 this holds iff there
// is a homomorphism q.A → p.A fixing the liberal variables by name.  Both
// formulas must share the same liberal variable names and signature.
func Entails(p, q PP) (bool, error) {
	pin, err := libPins(q, p)
	if err != nil {
		return false, err
	}
	return hom.Exists(q.A, p.A, hom.Options{Pin: pin}), nil
}

// LogicallyEquivalent reports mutual entailment (Theorem 2.3).
func LogicallyEquivalent(p, q PP) (bool, error) {
	pq, err := Entails(p, q)
	if err != nil || !pq {
		return false, err
	}
	return Entails(q, p)
}

// IsCored reports whether the formula is known to be its own core, which
// makes Core free.
func (p PP) IsCored() bool { return p.coredAt == p.A.Version()+1 }

// Core returns the core of the pp-formula (Section 2.1): a smallest
// induced subformula that p retracts onto by an endomorphism fixing the
// liberal variables.  It has the same liberal variables and is logically
// equivalent to p.  The result is marked cored; a formula that already is
// its own core is returned as is (same structure), so coring twice costs
// nothing.
func (p PP) Core() PP {
	if p.IsCored() {
		return p
	}
	keep := hom.Retract(p.A, p.S)
	if len(keep) < p.A.Size() {
		sub, old2new := p.A.Induced(keep)
		s := make([]int, len(p.S))
		for i, v := range p.S {
			s[i] = old2new[v]
		}
		p = PP{A: sub, S: s}
	}
	p.coredAt = p.A.Version() + 1
	return p
}

// Conjoin returns the conjunction of the given pp-formulas, which must all
// share the same liberal variable names and signature: liberal variables
// are identified by name, quantified variables are renamed apart.  This is
// the φ_J = ⋀_{j∈J} φ_j construction of the inclusion–exclusion argument
// (Section 5.3).
func Conjoin(ps ...PP) (PP, error) {
	if len(ps) == 0 {
		return PP{}, fmt.Errorf("pp: empty conjunction")
	}
	sig := ps[0].A.Signature()
	out := structure.New(sig)
	var s []int
	libIdx := make(map[string]int)
	for _, v := range ps[0].S {
		name := ps[0].A.ElemName(v)
		i, err := out.AddElem(name)
		if err != nil {
			return PP{}, err
		}
		libIdx[name] = i
		s = append(s, i)
	}
	for k, p := range ps {
		if !p.A.Signature().Equal(sig) {
			return PP{}, fmt.Errorf("pp: conjunction across different signatures")
		}
		if len(p.S) != len(s) {
			return PP{}, fmt.Errorf("pp: conjunction requires identical liberal variables")
		}
		// Map each element of p into out.
		m := make([]int, p.A.Size())
		inS := p.sSet()
		for v := 0; v < p.A.Size(); v++ {
			if !inS[v] {
				m[v] = out.FreshElem(p.A.ElemName(v) + "~" + strconv.Itoa(k))
			} else if i, ok := libIdx[p.A.ElemName(v)]; ok {
				m[v] = i
			} else {
				return PP{}, fmt.Errorf("pp: conjunction requires identical liberal variables")
			}
		}
		for ri := 0; ri < sig.NumRels(); ri++ {
			r := sig.Rel(ri)
			var addErr error
			nt := make([]int, r.Arity)
			p.A.ForEachTuple(r.Name, func(t []int) bool {
				for j, v := range t {
					nt[j] = m[v]
				}
				addErr = out.AddTuple(r.Name, nt...)
				return addErr == nil
			})
			if addErr != nil {
				return PP{}, addErr
			}
		}
	}
	return New(out, s)
}

// InvariantKey is a cheap renaming-invariant bucket key used to prefilter
// counting-equivalence tests.
func (p PP) InvariantKey() string {
	inS := p.sSet()
	deg := make([]int, p.A.Size())
	p.forEachAtom(func(t []int) {
		for _, v := range t {
			deg[v]++
		}
	})
	var sDeg, qDeg []int
	for v := 0; v < p.A.Size(); v++ {
		if inS[v] {
			sDeg = append(sDeg, deg[v])
		} else {
			qDeg = append(qDeg, deg[v])
		}
	}
	sort.Ints(sDeg)
	sort.Ints(qDeg)
	return fmt.Sprintf("%s|s=%v|q=%v", p.A.Fingerprint(), sDeg, qDeg)
}
