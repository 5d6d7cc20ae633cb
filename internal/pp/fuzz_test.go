package pp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/structure"
)

// fuzzSig is E/2 + R/3.
var fuzzSig = structure.MustSignature(
	structure.RelSym{Name: "E", Arity: 2},
	structure.RelSym{Name: "R", Arity: 3},
)

// formulaPairFromBytes decodes two pp-formulas over fuzzSig with the same
// liberal variables x0, x1, ... (0–2 of them): per formula 0–3
// quantified variables and 0–5 atoms, each atom a relation and its
// arguments.  Missing bytes read as 0, so every input decodes; a formula
// without variables has no atoms.
func formulaPairFromBytes(data []byte) (p, q pp.PP, err error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	lib := make([]logic.Var, next()%3)
	for i := range lib {
		lib[i] = logic.Var("x" + strconv.Itoa(i))
	}
	var out [2]pp.PP
	for k := range out {
		var d logic.Disjunct
		for i := next() % 4; i > 0; i-- {
			d.Exist = append(d.Exist, logic.Var("u"+strconv.Itoa(len(d.Exist))))
		}
		vars := append(slices.Clone(lib), d.Exist...)
		for i := next() % 6; i > 0 && len(vars) > 0; i-- {
			r := fuzzSig.Rel(next() % 2)
			args := make([]logic.Var, r.Arity)
			for j := range args {
				args[j] = vars[next()%len(vars)]
			}
			d.Atoms = append(d.Atoms, logic.Atom{Rel: r.Name, Args: args})
		}
		if out[k], err = pp.FromDisjunct(fuzzSig, lib, d); err != nil {
			return pp.PP{}, pp.PP{}, err
		}
	}
	return out[0], out[1], nil
}

// refConjoin is the conjunction built on the store, as Conjoin built it
// before formulas had a flat body: the liberal variables, then each
// formula's quantified ones renamed u~k (FreshElem resolves a clash),
// then relation by relation each formula's tuples, the store dropping
// duplicates.
func refConjoin(ps ...pp.PP) *structure.Structure {
	out := structure.New(ps[0].A.Signature())
	for _, name := range ps[0].LibNames() {
		_, _ = out.AddElem(name)
	}
	maps := make([][]int, len(ps))
	for k, p := range ps {
		maps[k] = make([]int, p.A.Size())
		for v := range maps[k] {
			name := p.A.ElemName(v)
			if i := sort.SearchInts(p.S, v); i < len(p.S) && p.S[i] == v {
				maps[k][v] = out.ElemIndex(name)
			} else {
				maps[k][v] = out.FreshElem(name + "~" + strconv.Itoa(k))
			}
		}
	}
	for _, r := range out.Signature().Rels() {
		for k, p := range ps {
			p.A.Database().ForEachTuple(r.Name, func(t []int) bool {
				nt := make([]int, len(t))
				for j, v := range t {
					nt[j] = maps[k][v]
				}
				_ = out.AddTuple(r.Name, nt...)
				return true
			})
		}
	}
	return out
}

// refComponents splits the formula's database into the substructures its
// Gaifman components induce, by union–find over the tuples, in the order
// of their smallest elements.
func refComponents(p pp.PP) []*structure.Structure {
	db := p.A.Database()
	parent := make([]int, db.Size())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for _, r := range db.Signature().Rels() {
		db.ForEachTuple(r.Name, func(t []int) bool {
			for _, v := range t[1:] {
				a, b := find(t[0]), find(v)
				parent[max(a, b)] = min(a, b)
			}
			return true
		})
	}
	var out []*structure.Structure
	for root := range parent {
		if find(root) != root {
			continue
		}
		var keep []int
		for v := range parent {
			if find(v) == root {
				keep = append(keep, v)
			}
		}
		out = append(out, refInduced(db, keep))
	}
	return out
}

// FuzzFormulaOps checks the operations on the flat formula body against
// the store-based reference: Conjoin against refConjoin (the same
// variables, atoms and order), Components against refComponents, Hat
// against the union of the liberal components, Core against refCore
// (same size, same atom count, logically equivalent), and Entails both
// ways against refEntails.
func FuzzFormulaOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0, 1, 1, 2, 1, 2, 2, 0, 0, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 4, 0, 0, 2, 1, 0, 1, 2, 0, 2, 2, 3, 0, 0, 0, 1, 1, 2, 3})
	f.Add([]byte{2, 3, 5, 1, 3, 3, 3, 0, 4, 4, 1, 2, 2, 0, 1, 1, 0, 0, 3, 1, 4, 1, 2, 0, 0})
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 200; i++ {
		data := make([]byte, 8+rng.Intn(32))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, q, err := formulaPairFromBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		c, err := pp.Conjoin(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.A.Database().String(), refConjoin(p, q).String(); got != want {
			t.Fatalf("Conjoin(%v, %v) = %s, want %s", p, q, got, want)
		}
		for _, x := range []pp.PP{p, q} {
			if ok, err := refEntails(c, x); err != nil || !ok {
				t.Fatalf("the conjunction %v does not entail its conjunct %v (%v)", c, x, err)
			}
		}

		comps, want := p.Components(), refComponents(p)
		if len(comps) != len(want) {
			t.Fatalf("%v: %d components, want %d", p, len(comps), len(want))
		}
		var hat []int
		for i, comp := range comps {
			if comp.A.Database().String() != want[i].String() {
				t.Fatalf("%v: component %d is %s, want %s", p, i, comp.A.Database(), want[i])
			}
			for _, v := range comp.S {
				if name := comp.A.ElemName(v); !slices.Contains(p.LibNames(), name) {
					t.Fatalf("%v: component %d has liberal %s", p, i, name)
				}
			}
			if len(comp.S) > 0 {
				for v := 0; v < comp.A.Size(); v++ {
					hat = append(hat, p.A.ElemIndex(comp.A.ElemName(v)))
				}
			}
		}
		if len(p.S) > 0 {
			h, err := p.Hat()
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(hat)
			if want := refInduced(p.A.Database(), hat); h.A.Database().String() != want.String() || fmt.Sprint(h.LibNames()) != fmt.Sprint(p.LibNames()) {
				t.Fatalf("Hat(%v) = %v, want %s", p, h, want)
			}
		}

		for _, x := range []pp.PP{p, q, c} {
			core := x.Core()
			ref, err := refCore(x)
			if err != nil {
				t.Fatal(err)
			}
			if core.A.Size() != ref.A.Size() || core.A.NumAtoms() != ref.A.NumAtoms() {
				t.Fatalf("core of %v is %v, the reference's %v", x, core, ref)
			}
			for _, pair := range [][2]pp.PP{{core, x}, {x, core}, {core, ref}, {ref, core}} {
				if ok, err := refEntails(pair[0], pair[1]); err != nil || !ok {
					t.Fatalf("core of %v: %v does not entail %v (%v)", x, pair[0], pair[1], err)
				}
			}
		}

		for _, pair := range [][2]pp.PP{{p, q}, {q, p}, {c, p}, {p, c}} {
			got, err := pp.Entails(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := refEntails(pair[0], pair[1]); got != want {
				t.Fatalf("Entails(%v, %v) = %v, reference %v", pair[0], pair[1], got, want)
			}
		}
	})
}
