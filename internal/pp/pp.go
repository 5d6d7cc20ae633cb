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
// Elements of A ∖ S are existentially quantified.  A is the formula's
// body in flat, immutable form; a formula without variables (the empty
// conjunction) has an empty one.
type PP struct {
	A *structure.Atoms
	S []int

	// cored records that the formula was found to be its own core.
	cored bool
}

// New validates and returns a PP over the given body and liberal set.
func New(a *structure.Atoms, s []int) (PP, error) {
	sorted := hom.SortElems(s)
	for i, v := range sorted {
		if v < 0 || v >= a.Size() {
			return PP{}, fmt.Errorf("pp: liberal index %d out of range", v)
		}
		if i > 0 && sorted[i-1] == v {
			return PP{}, fmt.Errorf("pp: duplicate liberal index %d", v)
		}
	}
	return PP{A: a, S: sorted}, nil
}

// FromDisjunct builds the pair view of a prenex pp disjunct over the given
// liberal variables.  The universe is lib ∪ (variables of the disjunct);
// liberal variables missing from every atom become isolated elements, as
// in Example 2.2 (the variable z there).  The atoms keep their order
// within each relation; a repeated atom keeps its first place.
func FromDisjunct(sig *structure.Signature, lib []logic.Var, d logic.Disjunct) (PP, error) {
	names := make([]string, 0, len(lib)+len(d.Exist))
	for _, v := range lib {
		if err := checkName(names, string(v)); err != nil {
			return PP{}, err
		}
		names = append(names, string(v))
	}
	for _, v := range d.Exist {
		if err := checkName(names, string(v)); err != nil {
			return PP{}, fmt.Errorf("pp: quantified variable %s collides: %v", v, err)
		}
		names = append(names, string(v))
	}
	// Resolve every atom in text order, then lay them out relation by
	// relation.
	rel := make([]int, len(d.Atoms))
	var args []int32
	for i, at := range d.Atoms {
		ri, ok := sig.Index(at.Rel)
		if !ok {
			return PP{}, fmt.Errorf("pp: atom uses unknown relation %s", at.Rel)
		}
		if ar := sig.Rel(ri).Arity; ar != len(at.Args) {
			return PP{}, fmt.Errorf("pp: atom %s has %d args, arity is %d", at.Rel, len(at.Args), ar)
		}
		rel[i] = ri
		for _, v := range at.Args {
			idx := slices.Index(names, string(v))
			if idx < 0 {
				return PP{}, fmt.Errorf("pp: atom variable %s neither liberal nor quantified", v)
			}
			args = append(args, int32(idx))
		}
	}
	b := structure.NewAtomsBuilder(sig, names, len(args))
	for ri := 0; ri < sig.NumRels(); ri++ {
		t := args
		for i, at := range d.Atoms {
			if rel[i] == ri {
				b.Add(ri, t[:len(at.Args)])
			}
			t = t[len(at.Args):]
		}
	}
	s := make([]int, len(lib))
	for i := range s {
		s[i] = i
	}
	return PP{A: b.Atoms(), S: s}, nil
}

// checkName reports an empty name or one already in names.
func checkName(names []string, name string) error {
	if name == "" {
		return fmt.Errorf("structure: empty element name")
	}
	if slices.Contains(names, name) {
		return fmt.Errorf("structure: duplicate element %q", name)
	}
	return nil
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
	sig := p.A.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		r := sig.Rel(ri)
		for t := p.A.Args(ri); len(t) > 0; t = t[r.Arity:] {
			args := make([]logic.Var, r.Arity)
			for j, v := range t[:r.Arity] {
				args[j] = logic.Var(p.A.ElemName(int(v)))
			}
			d.Atoms = append(d.Atoms, logic.Atom{Rel: r.Name, Args: args})
		}
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

// String renders the formula as "(x,y) | exists u. E(x,u) & E(u,y)".
func (p PP) String() string {
	d := p.ToDisjunct()
	return "(" + strings.Join(p.LibNames(), ",") + ") | " + d.String()
}

// FreeElems returns the liberal elements that occur in at least one atom:
// these are exactly free(φ).
func (p PP) FreeElems() []int {
	occurs := make([]bool, p.A.Size())
	sig := p.A.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		for _, v := range p.A.Args(ri) {
			occurs[v] = true
		}
	}
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
func (p PP) IsSentence() bool {
	sig := p.A.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		for _, v := range p.A.Args(ri) {
			if _, found := slices.BinarySearch(p.S, int(v)); found {
				return false
			}
		}
	}
	return true
}

// IsFree reports free(φ) ≠ ∅.
func (p PP) IsFree() bool { return !p.IsSentence() }

// Graph returns the Gaifman graph of the formula: vertices are all of A's
// elements, edges join elements co-occurring in a tuple (Section 2.1
// "Graphs").
func (p PP) Graph() *graph.Graph {
	g := graph.New(p.A.Size())
	sig := p.A.Signature()
	var buf [8]int
	for ri := 0; ri < sig.NumRels(); ri++ {
		ar := sig.Rel(ri).Arity
		t := buf[:0]
		if ar > len(buf) {
			t = make([]int, 0, ar)
		}
		for args := p.A.Args(ri); len(args) > 0; args = args[ar:] {
			t = t[:0]
			for _, v := range args[:ar] {
				t = append(t, int(v))
			}
			g.AddClique(t)
		}
	}
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
func (p PP) IsCored() bool { return p.cored }

// Core returns the core of the pp-formula (Section 2.1): a smallest
// induced subformula that p retracts onto by an endomorphism fixing the
// liberal variables.  It has the same liberal variables and is logically
// equivalent to p.  The result is marked cored; a formula that already is
// its own core is returned as is (same body), so coring twice costs
// nothing.
func (p PP) Core() PP {
	if p.cored {
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
	p.cored = true
	return p
}

// Conjoin returns the conjunction of the given pp-formulas, which must all
// share the same liberal variable names and signature: liberal variables
// are identified by name, quantified variables are renamed apart (the
// k-th formula's u becomes u~k, or u~k#n if that name is taken).  This is
// the φ_J = ⋀_{j∈J} φ_j construction of the inclusion–exclusion argument
// (Section 5.3).  The variables are the liberal ones, then each formula's
// quantified ones in turn; each relation's atoms are the formulas' in
// turn, a repeated atom keeping its first place.
func Conjoin(ps ...PP) (PP, error) {
	if len(ps) == 0 {
		return PP{}, fmt.Errorf("pp: empty conjunction")
	}
	sig := ps[0].A.Signature()
	n, nArgs, nMap := len(ps[0].S), 0, 0
	for _, p := range ps {
		if !p.A.Signature().Equal(sig) {
			return PP{}, fmt.Errorf("pp: conjunction across different signatures")
		}
		if len(p.S) != len(ps[0].S) {
			return PP{}, fmt.Errorf("pp: conjunction requires identical liberal variables")
		}
		n += p.A.Size() - len(p.S)
		nMap += p.A.Size()
		for ri := 0; ri < sig.NumRels(); ri++ {
			nArgs += len(p.A.Args(ri))
		}
	}
	names := make([]string, len(ps[0].S), n)
	s := make([]int, len(ps[0].S))
	for i, v := range ps[0].S {
		names[i], s[i] = ps[0].A.ElemName(v), i
	}
	lib := names[:len(s)]
	// maps[k] carries ps[k]'s variables to the conjunction's.
	maps, flat := make([][]int32, len(ps)), make([]int32, nMap)
	for k, p := range ps {
		m := flat[:p.A.Size()]
		flat = flat[p.A.Size():]
		for v := range m {
			name := p.A.ElemName(v)
			if i := sort.SearchInts(p.S, v); i == len(p.S) || p.S[i] != v {
				prefix := name + "~" + strconv.Itoa(k)
				name = prefix
				for c := 0; slices.Contains(names, name); c++ {
					name = prefix + "#" + strconv.Itoa(c)
				}
				m[v] = int32(len(names))
				names = append(names, name)
			} else if i := slices.Index(lib, name); i >= 0 {
				m[v] = int32(i)
			} else {
				return PP{}, fmt.Errorf("pp: conjunction requires identical liberal variables")
			}
		}
		maps[k] = m
	}
	b := structure.NewAtomsBuilder(sig, names, nArgs)
	var t []int32
	for ri := 0; ri < sig.NumRels(); ri++ {
		ar := sig.Rel(ri).Arity
		for k, p := range ps {
			for args := p.A.Args(ri); len(args) > 0; args = args[ar:] {
				t = t[:0]
				for _, v := range args[:ar] {
					t = append(t, maps[k][v])
				}
				b.Add(ri, t)
			}
		}
	}
	return PP{A: b.Atoms(), S: s}, nil
}

// InvariantKey is a cheap renaming-invariant bucket key used to prefilter
// counting-equivalence tests: the number of variables, the number of
// atoms of each relation, and the sorted occurrence counts of the
// liberal and of the quantified variables.
func (p PP) InvariantKey() string {
	sig := p.A.Signature()
	deg := make([]int, p.A.Size())
	buf := strconv.AppendInt(append(make([]byte, 0, 64), "n="...), int64(p.A.Size()), 10)
	for ri := 0; ri < sig.NumRels(); ri++ {
		r := sig.Rel(ri)
		args := p.A.Args(ri)
		for _, v := range args {
			deg[v]++
		}
		buf = append(append(append(buf, ';'), r.Name...), '=')
		buf = strconv.AppendInt(buf, int64(len(args)/r.Arity), 10)
	}
	inS := p.sSet()
	var sDeg, qDeg []int
	for v, d := range deg {
		if inS[v] {
			sDeg = append(sDeg, d)
		} else {
			qDeg = append(qDeg, d)
		}
	}
	sort.Ints(sDeg)
	sort.Ints(qDeg)
	for i, ds := range [2][]int{sDeg, qDeg} {
		buf = append(buf, [2]string{"|s=", "|q="}[i]...)
		for j, d := range ds {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(d), 10)
		}
	}
	return string(buf)
}
