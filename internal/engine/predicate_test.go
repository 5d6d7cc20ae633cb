package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
)

// predSig has a binary and a ternary relation, so the random
// ∃-components below repeat relations, repeat variables inside an atom,
// and mix arities.
func predSig() *structure.Signature {
	return structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "R", Arity: 3},
	)
}

// randomExistsComponent draws a connected pp-formula whose liberal
// variables are the interface (1–3 of them) of one ∃-component: a
// quantified part of 1–4 variables joined by a random tree of E atoms,
// plus random extra atoms among them (cycles, loops, R triples), each
// interface variable attached to the quantified part by at least one
// atom, and random atoms lying on the interface alone.
func randomExistsComponent(rng *rand.Rand) pp.PP {
	a := structure.New(predSig())
	k, q := 1+rng.Intn(3), 1+rng.Intn(4)
	for i := 0; i < k; i++ {
		a.EnsureElem(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < q; i++ {
		a.EnsureElem(fmt.Sprintf("z%d", i))
	}
	quant := func() int { return k + rng.Intn(q) }
	any := func() int { return rng.Intn(k + q) }
	edge := func(u, v int) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		_ = a.AddTuple("E", u, v)
	}
	for i := 1; i < q; i++ {
		edge(k+i, k+rng.Intn(i))
	}
	for i := 0; i < k; i++ {
		edge(i, quant())
	}
	for n := rng.Intn(4); n > 0; n-- {
		edge(quant(), any()) // may close a cycle, may be a loop
	}
	for n := rng.Intn(3); n > 0; n-- {
		_ = a.AddTuple("R", any(), quant(), any())
	}
	for n := rng.Intn(3); n > 0; n-- {
		edge(rng.Intn(k), rng.Intn(k)) // interface-only
	}
	if rng.Intn(3) == 0 {
		_ = a.AddTuple("R", rng.Intn(k), rng.Intn(k), rng.Intn(k)) // interface-only
	}
	s := make([]int, k)
	for i := range s {
		s[i] = i
	}
	p, err := pp.New(a, s)
	if err != nil {
		panic(err)
	}
	return p
}

// randomPredStructure draws a structure over predSig with n elements
// (0 and 1 included); either relation may come out empty.
func randomPredStructure(rng *rand.Rand, n int) *structure.Structure {
	b := structure.New(predSig())
	for i := 0; i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	dE, dR := rng.Float64()*0.7, rng.Float64()*0.3
	if rng.Intn(6) == 0 {
		dE = 0
	}
	if rng.Intn(3) == 0 {
		dR = 0
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < dE {
				_ = b.AddTuple("E", u, v)
			}
			for w := 0; w < n; w++ {
				if rng.Float64() < dR {
					_ = b.AddTuple("R", u, v, w)
				}
			}
		}
	}
	return b
}

func solverRows(sub, b *structure.Structure, iface []int) []string {
	var rows []string
	hom.ForEachExtendable(sub, b, iface, hom.Options{}, func(vals []int) bool {
		rows = append(rows, fmt.Sprint(vals))
		return true
	})
	sort.Strings(rows)
	return rows
}

func predRows(t *Table, keep func(row []int) bool) []string {
	var rows []string
	row := make([]int, t.width)
	for r := 0; r < t.n; r++ {
		for j := range row {
			row[j] = int(t.flat[r*t.width+j])
		}
		if keep == nil || keep(row) {
			rows = append(rows, fmt.Sprint(row))
		}
	}
	sort.Strings(rows)
	return rows
}

// TestPredicateTableMatchesSolver is the table-level differential of the
// nested projection DP: for random ∃-components and random structures the
// predicate table holds exactly the interface assignments
// hom.ForEachExtendable reports for the component as compiled (interface-
// only atoms stripped), each once; and cut back by the stripped atoms it
// is exactly the solver's answer for the unstripped component.  Every
// third round forces the wide-bag spill keys.
func TestPredicateTableMatchesSolver(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 80
	}
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randomExistsComponent(rng)
		ecs := pp.ExistsComponents(p)
		if len(ecs) != 1 || len(ecs[0].Interface) != len(p.S) {
			t.Fatalf("seed %d: generator produced %d ∃-components, want one on the whole interface", seed, len(ecs))
		}
		sub, old2new := existsSub(p.A, ecs[0])
		full, _ := p.A.Induced(ecs[0].Vertices)
		iface := make([]int, len(p.S))
		scope := make([]int, len(p.S))
		for i, v := range p.S {
			iface[i], scope[i] = old2new[v], i
		}
		pred, proj, err := compilePredicate(sub, iface)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c := &planConstraint{scope: scope, sub: sub, iface: iface, pred: pred, predProj: proj}
		c.key = makeTableKey(c)
		// onIface reports whether an interface assignment satisfies the
		// atoms of the component that lie on the interface alone.
		onIface := func(b *structure.Structure) func(row []int) bool {
			return func(row []int) bool {
				ok := true
				for _, r := range predSig().Rels() {
					p.A.ForEachTuple(r.Name, func(tu []int) bool {
						img := make([]int, len(tu))
						for j, v := range tu {
							if v >= len(p.S) {
								return true // touches the quantified part
							}
							img[j] = row[v]
						}
						ok = ok && b.HasTuple(r.Name, img)
						return ok
					})
				}
				return ok
			}
		}
		for _, n := range []int{0, 1, 2, 3 + rng.Intn(4)} {
			b := randomPredStructure(rng, n)
			restore := func() {}
			if seed%3 == 0 {
				restore = ForcePackedKeyBudget(0)
			}
			tab := NewSession(b).tableFor(c, nil)
			restore()
			got, want := predRows(tab, nil), solverRows(sub, b, iface)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d n %d: component %v interface %v\n table  %v\n solver %v", seed, n, sub, iface, got, want)
			}
			got, want = predRows(tab, onIface(b)), solverRows(full, b, iface)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d n %d: unstripped component %v interface %v\n table cut back %v\n solver         %v", seed, n, full, iface, got, want)
			}
		}
	}
}

// ∃-components that differ only in the names of their elements and in
// atoms on the interface alone share one table key; a different
// interface column order does not.
func TestPredKeyIsStructural(t *testing.T) {
	sig := predSig()
	key := func(src string) tableKey {
		t.Helper()
		pl, err := Compile(compilePP(t, sig, src), FPT)
		if err != nil {
			t.Fatal(err)
		}
		return firstPredicate(t, pl).key
	}
	base := key("q(x,y) := exists z. E(x,z) & E(z,y)")
	if k := key("q(x,y) := exists w. E(x,w) & E(w,y)"); k != base {
		t.Errorf("renaming the bound variable changed the key: %q vs %q", k.enc, base.enc)
	}
	if k := key("q(x,y) := exists z. E(x,z) & E(z,y) & E(x,y) & E(y,x)"); k != base {
		t.Errorf("interface-only atoms changed the key: %q vs %q", k.enc, base.enc)
	}
	if k := key("q(x,y) := exists z. E(y,z) & E(z,x)"); k == base {
		t.Errorf("the converse predicate got the same key %q", k.enc)
	}
}

// A wide ∃-component on data full of witnesses: a quantified K4 hanging
// off one free variable, on the complete graph with loops on 80 vertices,
// where the K4 bag has 80⁴ ≈ 4·10⁷ assignments and every one is a
// witness.  The nested run needs one per interface value and must stop
// there (cut in enumerate) — enumerating the bag in full takes seconds, the
// witness search well under the bound below — which is why no second
// mechanism, a solver selected by the nested decomposition's width, sits
// beside the DP (BenchmarkMaterialize_PredicateK4_N60 has the comparison
// on a random graph).
func TestWideComponentStopsAtFirstWitness(t *testing.T) {
	sig := predSig()
	pl, err := Compile(compilePP(t, sig,
		"q(x) := exists a, b, c, d. E(x,a) & E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) & E(c,d)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	b := structure.New(sig)
	for i := 0; i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			_ = b.AddTuple("E", u, v)
		}
	}
	start := time.Now()
	got, err := pl.CountIn(context.Background(), NewSession(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != n {
		t.Fatalf("count %v, want %d", got, n)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("materializing the K4 predicate took %v: the nested run enumerated the bag instead of stopping at a witness", el)
	}
}
