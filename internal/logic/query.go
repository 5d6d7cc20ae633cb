package logic

import (
	"fmt"
	"slices"
	"strconv"
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
	buf  []byte // the candidate at hand
	old  []Var  // renameExist's names before renaming
}

func (fn *freshNamer) fresh(hint Var) Var {
	base := string(hint)
	if base == "" {
		base = "v"
	}
	for {
		fn.n++
		fn.buf = strconv.AppendInt(append(append(fn.buf[:0], base...), '_'), int64(fn.n), 10)
		if !fn.used[Var(fn.buf)] {
			cand := Var(fn.buf)
			fn.used[cand] = true
			return cand
		}
	}
}

// renameExist renames d's existential variables fresh, in order, in d's
// Exist list and atoms, which it edits.  One pass substitutes them all:
// a fresh name is never one of the old ones.
func (fn *freshNamer) renameExist(d *Disjunct) {
	if len(d.Exist) == 0 {
		return
	}
	fn.old = append(fn.old[:0], d.Exist...)
	for i, v := range d.Exist {
		d.Exist[i] = fn.fresh(v)
	}
	for _, a := range d.Atoms {
		for j, v := range a.Args {
			if k := slices.Index(fn.old, v); k >= 0 {
				a.Args[j] = d.Exist[k]
			}
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
	used := AllVars(q.F) // a map of its own: the namer extends it
	for _, v := range q.Lib {
		used[v] = true
	}
	c := &dnfConv{fn: freshNamer{used: used}}
	nAtoms, nArgs := countAtoms(q.F)
	c.atoms, c.args = make([]Atom, nAtoms), make([]Var, nArgs)
	c.dnf(q.F)
	return slices.Clip(c.stack)
}

// dnfConv is one DNF conversion.  Every disjunct on its stack owns its
// Exist list, its atom list and every atom's arguments — no other
// disjunct and not the formula shares them — so renaming edits them in
// place, and a conjunction reuses one side's arrays when they have room.
// A disjunct that a distribution uses twice is cloned first.
type dnfConv struct {
	fn    freshNamer
	stack []Disjunct
	atoms []Atom // the formula's atoms' slots, one per leaf, in turn
	args  []Var  // their arguments' cells
}

// countAtoms returns how many atoms f has, and how many arguments.
func countAtoms(f Formula) (atoms, args int) {
	switch g := f.(type) {
	case Atom:
		return 1, len(g.Args)
	case And:
		a, b := countAtoms(g.L)
		c, d := countAtoms(g.R)
		return a + c, b + d
	case Or:
		a, b := countAtoms(g.L)
		c, d := countAtoms(g.R)
		return a + c, b + d
	case Exists:
		return countAtoms(g.Body)
	}
	return 0, 0
}

// dnf pushes f's disjuncts onto the stack.
func (c *dnfConv) dnf(f Formula) {
	switch g := f.(type) {
	case Atom:
		args := c.args[:len(g.Args):len(g.Args)]
		c.args = c.args[len(g.Args):]
		copy(args, g.Args)
		atoms := c.atoms[:1:1]
		c.atoms = c.atoms[1:]
		atoms[0] = Atom{Rel: g.Rel, Args: args}
		c.stack = append(c.stack, Disjunct{Atoms: atoms})
	case Truth:
		c.stack = append(c.stack, Disjunct{})
	case Or:
		c.dnf(g.L)
		c.dnf(g.R)
	case And:
		lo := len(c.stack)
		c.dnf(g.L)
		mid := len(c.stack)
		c.dnf(g.R)
		hi := len(c.stack)
		for i := lo; i < mid; i++ {
			for j := mid; j < hi; j++ {
				a, b := c.stack[i], c.stack[j]
				if j < hi-1 { // a pairs with another right disjunct
					a = clone(a)
				}
				if i < mid-1 { // b pairs with another left disjunct
					b = clone(b)
				}
				// Rename both sides' existential variables fresh so that
				// different copies of the same subformula stay independent.
				c.fn.renameExist(&a)
				c.fn.renameExist(&b)
				c.stack = append(c.stack, Disjunct{Exist: concat(a.Exist, b.Exist), Atoms: concat(a.Atoms, b.Atoms)})
			}
		}
		c.stack = c.stack[:lo+copy(c.stack[lo:], c.stack[hi:])]
	case Exists:
		lo := len(c.stack)
		c.dnf(g.Body)
		for i := lo; i < len(c.stack); i++ {
			d := &c.stack[i]
			// Vacuous quantifier on a non-empty universe: drop.  Already
			// bound deeper (shadowing): the outer quantifier is vacuous
			// for the atoms that survived.
			if !occursInAtoms(g.V, d.Atoms) || slices.Contains(d.Exist, g.V) {
				continue
			}
			nv := c.fn.fresh(g.V)
			if d.Exist == nil {
				d.Exist = make([]Var, 0, 4)
			}
			d.Exist = append(d.Exist, nv)
			substAtoms(d.Atoms, g.V, nv)
		}
	default:
		panic(fmt.Sprintf("logic: unknown formula node %T", f))
	}
}

// clone returns a copy of d that shares nothing with it: the arguments
// of all its atoms in one array.
func clone(d Disjunct) Disjunct {
	n := 0
	for _, a := range d.Atoms {
		n += len(a.Args)
	}
	args := make([]Var, n)
	out := Disjunct{Exist: slices.Clone(d.Exist), Atoms: make([]Atom, len(d.Atoms))}
	for i, a := range d.Atoms {
		k := copy(args, a.Args)
		out.Atoms[i], args = Atom{Rel: a.Rel, Args: args[:k:k]}, args[k:]
	}
	return out
}

// concat returns a followed by b, in a's array or b's when it has room
// (moving b's elements up), else in a new one with room for as many
// again; a and b are not to be used afterwards.
func concat[T any](a, b []T) []T {
	n := len(a) + len(b)
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	case cap(a) >= n:
		return append(a, b...)
	case cap(b) >= n:
		out := b[:n]
		copy(out[len(a):], b)
		copy(out, a)
		return out
	}
	out := make([]T, n, 2*n)
	copy(out[copy(out, a):], b)
	return out
}

// substAtoms replaces from by to in the atoms' arguments, in place.
func substAtoms(atoms []Atom, from, to Var) {
	for _, a := range atoms {
		for j, v := range a.Args {
			if v == from {
				a.Args[j] = to
			}
		}
	}
}

func occursInAtoms(v Var, atoms []Atom) bool {
	for _, a := range atoms {
		if slices.Contains(a.Args, v) {
			return true
		}
	}
	return false
}
