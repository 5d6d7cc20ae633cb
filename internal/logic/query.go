package logic

import (
	"fmt"
	"strings"
)

// Query is an ep-formula φ together with its ordered liberal variable list
// lib(φ) ⊇ free(φ).  Counting is always relative to the liberal variables:
// |φ(B)| is the number of maps f : lib(φ) → B with B,f ⊨ φ (Section 2.1).
// Liberal variables may be absent from every atom (Example 2.1).
type Query struct {
	Name string // optional display name
	Lib  []Var  // liberal variables, in declaration order
	F    Formula
}

// NewQuery validates and returns a query.  The liberal list must contain
// every free variable, contain no duplicates, and no liberal variable may
// be quantified inside the formula.
func NewQuery(name string, lib []Var, f Formula) (Query, error) {
	q := Query{Name: name, Lib: append([]Var(nil), lib...), F: f}
	seen := make(map[Var]bool, len(lib))
	for _, v := range lib {
		if seen[v] {
			return Query{}, fmt.Errorf("logic: duplicate liberal variable %s", v)
		}
		seen[v] = true
	}
	for v := range FreeVars(f) {
		if !seen[v] {
			return Query{}, fmt.Errorf("logic: free variable %s not in liberal list", v)
		}
	}
	if qv := quantifiedVars(f); true {
		for v := range qv {
			if seen[v] {
				return Query{}, fmt.Errorf("logic: variable %s is both liberal and quantified", v)
			}
		}
	}
	return q, nil
}

// MustQuery is NewQuery but panics on error.
func MustQuery(name string, lib []Var, f Formula) Query {
	q, err := NewQuery(name, lib, f)
	if err != nil {
		panic(err)
	}
	return q
}

func quantifiedVars(f Formula) map[Var]bool {
	out := make(map[Var]bool)
	var walk func(Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case And:
			walk(g.L)
			walk(g.R)
		case Or:
			walk(g.L)
			walk(g.R)
		case Exists:
			out[g.V] = true
			walk(g.Body)
		}
	}
	walk(f)
	return out
}

// String renders the query in the library's concrete syntax.
func (q Query) String() string {
	name := q.Name
	if name == "" {
		name = "q"
	}
	parts := make([]string, len(q.Lib))
	for i, v := range q.Lib {
		parts[i] = string(v)
	}
	return fmt.Sprintf("%s(%s) := %s", name, strings.Join(parts, ","), q.F)
}

// Disjunct is one prenex pp disjunct of an ep-formula: existential
// variables (renamed apart from the liberal variables and from each other)
// over a conjunction of atoms.  An atom-free disjunct is the formula ⊤
// (possibly under vacuous quantifiers, which we drop).
type Disjunct struct {
	Exist []Var
	Atoms []Atom
}

// String renders the disjunct as a prenex pp-formula body.
func (d Disjunct) String() string {
	var b strings.Builder
	for _, v := range d.Exist {
		b.WriteString("exists ")
		b.WriteString(string(v))
		b.WriteString(". ")
	}
	if len(d.Atoms) == 0 {
		b.WriteString("true")
	} else {
		for i, a := range d.Atoms {
			if i > 0 {
				b.WriteString(" & ")
			}
			b.WriteString(a.String())
		}
	}
	return b.String()
}

// freshNamer generates variable names that avoid a given used-set.
type freshNamer struct {
	used map[Var]bool
	n    int
}

func newFreshNamer(used map[Var]bool) *freshNamer {
	u := make(map[Var]bool, len(used))
	for v := range used {
		u[v] = true
	}
	return &freshNamer{used: u}
}

func (fn *freshNamer) fresh(hint Var) Var {
	base := string(hint)
	if base == "" {
		base = "v"
	}
	for {
		fn.n++
		cand := Var(fmt.Sprintf("%s_%d", base, fn.n))
		if !fn.used[cand] {
			fn.used[cand] = true
			return cand
		}
	}
}

// Disjuncts converts the query into an equivalent disjunction of prenex
// pp-formulas, all sharing the query's liberal variable list (so that
// |φ(B)| = |⋃ψ ψ(B)|, Section 2.1 "ep-formulas").  Existential variables
// are renamed apart: distinct disjuncts and distinct conjuncts never share
// a bound variable, and no bound variable collides with a liberal one.
//
// The transformation is the standard one: atoms map to themselves, ∨
// concatenates disjunct lists, ∧ takes pairwise unions, and ∃x either
// renames x fresh in each disjunct where x occurs or is dropped where it
// does not (sound on non-empty universes, which Validate enforces).
func (q Query) Disjuncts() []Disjunct {
	fn := newFreshNamer(AllVars(q.F))
	for _, v := range q.Lib {
		fn.used[v] = true
	}
	return dnf(q.F, fn)
}

func dnf(f Formula, fn *freshNamer) []Disjunct {
	switch g := f.(type) {
	case Atom:
		return []Disjunct{{Atoms: []Atom{g}}}
	case Truth:
		return []Disjunct{{}}
	case Or:
		l := dnf(g.L, fn)
		r := dnf(g.R, fn)
		return append(l, r...)
	case And:
		l := dnf(g.L, fn)
		r := dnf(g.R, fn)
		out := make([]Disjunct, 0, len(l)*len(r))
		for _, dl := range l {
			for _, dr := range r {
				// Rename both sides' existential variables fresh so that
				// different copies of the same subformula stay independent.
				a := renameExist(dl, fn)
				b := renameExist(dr, fn)
				out = append(out, Disjunct{
					Exist: append(append([]Var{}, a.Exist...), b.Exist...),
					Atoms: append(append([]Atom{}, a.Atoms...), b.Atoms...),
				})
			}
		}
		return out
	case Exists:
		ds := dnf(g.Body, fn)
		out := make([]Disjunct, 0, len(ds))
		for _, d := range ds {
			if !occursInAtoms(g.V, d.Atoms) {
				// Vacuous quantifier on a non-empty universe: drop.
				out = append(out, d)
				continue
			}
			if containsVar(d.Exist, g.V) {
				// Already bound deeper (shadowing); the outer quantifier is
				// vacuous for the atoms that survived.
				out = append(out, d)
				continue
			}
			nv := fn.fresh(g.V)
			out = append(out, Disjunct{
				Exist: append(append([]Var{}, d.Exist...), nv),
				Atoms: substAtoms(d.Atoms, g.V, nv),
			})
		}
		return out
	default:
		panic(fmt.Sprintf("logic: unknown formula node %T", f))
	}
}

func renameExist(d Disjunct, fn *freshNamer) Disjunct {
	if len(d.Exist) == 0 {
		return d
	}
	out := Disjunct{Exist: make([]Var, len(d.Exist)), Atoms: append([]Atom(nil), d.Atoms...)}
	for i, v := range d.Exist {
		nv := fn.fresh(v)
		out.Exist[i] = nv
		out.Atoms = substAtoms(out.Atoms, v, nv)
	}
	return out
}

func substAtoms(atoms []Atom, from, to Var) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		args := make([]Var, len(a.Args))
		changed := false
		for j, v := range a.Args {
			if v == from {
				args[j] = to
				changed = true
			} else {
				args[j] = v
			}
		}
		if changed {
			out[i] = Atom{Rel: a.Rel, Args: args}
		} else {
			out[i] = a
		}
	}
	return out
}

func occursInAtoms(v Var, atoms []Atom) bool {
	for _, a := range atoms {
		for _, w := range a.Args {
			if w == v {
				return true
			}
		}
	}
	return false
}

func containsVar(vs []Var, v Var) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}
