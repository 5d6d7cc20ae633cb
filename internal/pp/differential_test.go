package pp_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/eptrans"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// ternarySig adds a ternary relation to the edge relation, so the
// differential also covers tuples wider than an edge.
func ternarySig() *structure.Signature {
	return structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "T", Arity: 3},
	)
}

// randomFormula draws one pp-formula: a random disjunct or a 2–4-way
// conjunction of random disjuncts over nFree shared liberal variables.
// Few atoms over many variables give loops, isolated liberal variables,
// disconnected quantified parts and (nFree = 0, or no liberal variable in
// an atom) sentences.
func randomFormula(t *testing.T, sig *structure.Signature, nFree int, rng *rand.Rand) pp.PP {
	t.Helper()
	parts := make([]pp.PP, 1+rng.Intn(4))
	for i := range parts {
		nVars := nFree + rng.Intn(5)
		if nVars == 0 {
			nVars = 1
		}
		q := workload.RandomPPQuery(sig, nVars, nFree, 1+rng.Intn(5), rng.Int63())
		p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	if len(parts) == 1 {
		return parts[0]
	}
	p, err := pp.Conjoin(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustEntail(t *testing.T, p, q pp.PP) bool {
	t.Helper()
	ok, err := pp.Entails(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func mustRefEntail(t *testing.T, p, q pp.PP) bool {
	t.Helper()
	ok, err := refEntails(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// Core, Entails and Minimize against the reference oracle over 2400
// random formulas, in groups that share a signature and liberal variables
// so that every ordered pair within a group is comparable.
func TestFrontEndMatchesReference(t *testing.T) {
	const groups, perGroup = 600, 4
	sentences, shrunk := 0, 0
	for g := 0; g < groups; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		sig := workload.EdgeSig()
		if g%3 == 0 {
			sig = ternarySig()
		}
		nFree := rng.Intn(4)
		ps := make([]pp.PP, perGroup)
		for i := range ps {
			ps[i] = randomFormula(t, sig, nFree, rng)
		}
		for i, p := range ps {
			c := p.Core()
			r, err := refCore(p)
			if err != nil {
				t.Fatal(err)
			}
			if c.A.Size() != r.A.Size() || c.A.NumAtoms() != r.A.NumAtoms() {
				t.Fatalf("group %d formula %d: core has %d elements / %d tuples, reference %d / %d\n%v",
					g, i, c.A.Size(), c.A.NumAtoms(), r.A.Size(), r.A.NumAtoms(), p)
			}
			if fmt.Sprint(c.LibNames()) != fmt.Sprint(p.LibNames()) {
				t.Fatalf("group %d formula %d: core liberal variables %v, formula's %v", g, i, c.LibNames(), p.LibNames())
			}
			if !mustEntail(t, c, r) || !mustEntail(t, r, c) || !mustRefEntail(t, c, r) || !mustRefEntail(t, r, c) {
				t.Fatalf("group %d formula %d: core %v not equivalent to reference core %v", g, i, c, r)
			}
			if !c.IsCored() {
				t.Fatalf("group %d formula %d: core not marked cored", g, i)
			}
			if again := c.Core(); again.A != c.A {
				t.Fatalf("group %d formula %d: Core of a core built a new structure", g, i)
			}
			if c.A.Size() == p.A.Size() && c.A != p.A {
				t.Fatalf("group %d formula %d: formula is its own core but Core built a new structure", g, i)
			}
			if c.A.Size() < p.A.Size() {
				shrunk++
			}
			// The plan compiler relies on this: in a connected formula with
			// a liberal variable every ∃-component borders one, so none is
			// a sentence hiding inside a liberal component; a component
			// without liberal variables is one ∃-component.  Checked on the
			// definitions and on the Shape the compiler reads.
			for _, f := range []pp.PP{p, c} {
				for _, comp := range f.Components() {
					if len(comp.S) == 0 {
						continue
					}
					for _, ec := range pp.ExistsComponents(comp) {
						if len(ec.Interface) == 0 {
							t.Fatalf("group %d formula %d: ∃-component %v of a liberal component has an empty interface\n%v", g, i, ec.Vertices, comp)
						}
					}
				}
				sh := pp.ShapeOf(f)
				for _, comp := range sh.Components {
					if len(comp.Lib) == 0 {
						if len(comp.Exists) != 1 {
							t.Fatalf("group %d formula %d: Shape component %v without liberal variables has %d ∃-components, want 1\n%v", g, i, comp.Vertices, len(comp.Exists), f)
						}
						continue
					}
					for _, e := range comp.Exists {
						if len(sh.Exists[e].Interface) == 0 {
							t.Fatalf("group %d formula %d: Shape ∃-component %v of a liberal component has an empty interface\n%v", g, i, sh.Exists[e].Vertices, f)
						}
					}
				}
			}
			if p.IsSentence() {
				sentences++
			}
		}
		for i, p := range ps {
			for j, q := range ps {
				if got, want := mustEntail(t, p, q), mustRefEntail(t, p, q); got != want {
					t.Fatalf("group %d: Entails(%d,%d) = %v, reference %v\np = %v\nq = %v", g, i, j, got, want, p, q)
				}
			}
		}
		min, err := eptrans.Minimize(ps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMinimize(ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(min) != len(want) {
			t.Fatalf("group %d: Minimize kept %d disjuncts, reference %d", g, len(min), len(want))
		}
		for k, idx := range want {
			if min[k].A != ps[idx].A {
				t.Fatalf("group %d: Minimize survivor %d is not disjunct %d", g, k, idx)
			}
		}
	}
	// The generator must actually reach the cases the oracle is for.
	if sentences < 100 || shrunk < 500 {
		t.Fatalf("generator too tame: %d sentences, %d proper cores among %d formulas", sentences, shrunk, groups*perGroup)
	}
}

// Core of a cored formula is free: no search, no allocation.
func TestCoreOfCoredFormulaAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomFormula(t, workload.EdgeSig(), 2, rng).Core()
	if n := testing.AllocsPerRun(100, func() { _ = c.Core() }); n != 0 {
		t.Fatalf("Core() of a cored formula allocates %v times", n)
	}
}

// classShape is what the pipeline differential compares per counting
// class: merged coefficient, core universe size, number of liberals.
type classShape struct {
	coeff       string
	universe, s int
}

func sortedShapes(xs []classShape) []classShape {
	sort.Slice(xs, func(i, j int) bool { return fmt.Sprint(xs[i]) < fmt.Sprint(xs[j]) })
	return xs
}

// refPipeline runs the Theorem 3.1 front-end on the reference oracle:
// minimize, expand, core every raw term, classify by reference canonical
// key, merge coefficients, filter by sentence entailment.  It returns the
// (Raw, Unique, Cancelled) triple, |φ⁻af|, and the live classes' shapes.
func refPipeline(t *testing.T, q logic.Query, sig *structure.Signature) (raw, unique, cancelled, minus int, shapes []classShape) {
	t.Helper()
	var pps []pp.PP
	for _, d := range q.Disjuncts() {
		p, err := pp.FromDisjunct(sig, q.Lib, d)
		if err != nil {
			t.Fatal(err)
		}
		pps = append(pps, p)
	}
	kept, err := refMinimize(pps)
	if err != nil {
		t.Fatal(err)
	}
	var free, sentences []pp.PP
	for _, i := range kept {
		if pps[i].IsSentence() {
			sentences = append(sentences, pps[i])
		} else {
			free = append(free, pps[i])
		}
	}
	terms, err := ie.RawTerms(free)
	if err != nil {
		t.Fatal(err)
	}
	type class struct {
		rep   pp.PP
		coeff *big.Int
	}
	byKey := map[string]*class{}
	var order []*class
	for _, tm := range terms {
		c, err := refCore(tm.Formula)
		if err != nil {
			t.Fatal(err)
		}
		k, err := refCanonicalKey(c)
		if err != nil {
			t.Fatal(err)
		}
		cl := byKey[k]
		if cl == nil {
			cl = &class{rep: c, coeff: new(big.Int)}
			byKey[k] = cl
			order = append(order, cl)
		}
		cl.coeff.Add(cl.coeff, tm.Coeff)
	}
	raw, unique = len(terms), len(order)
	for _, cl := range order {
		if cl.coeff.Sign() == 0 {
			cancelled++
			continue
		}
		entailsSentence := false
		for _, th := range sentences {
			if mustRefEntail(t, cl.rep, th) {
				entailsSentence = true
			}
		}
		if !entailsSentence {
			minus++
			shapes = append(shapes, classShape{cl.coeff.String(), cl.rep.A.Size(), len(cl.rep.S)})
		}
	}
	return raw, unique, cancelled, minus, sortedShapes(shapes)
}

// The compiled pipeline against the reference pipeline over the pinned
// benchmark's cold-query stream: same terms, same classes, same filter;
// and within each query the new canonical keys induce the partition the
// reference keys do.
func TestPipelineMatchesReference(t *testing.T) {
	sig := workload.EdgeSig()
	for seed := int64(0); seed < 500; seed++ {
		q := workload.RandomEPQuery(sig, 4, 6, 2, 5, seed)
		c, err := eptrans.Compile(q, sig)
		if err != nil {
			t.Fatal(err)
		}
		raw, unique, cancelled, minus, shapes := refPipeline(t, q, sig)
		st := c.Pool.Stats()
		if st.Raw != raw || st.Unique != unique || st.Cancelled != cancelled {
			t.Fatalf("seed %d: pool (raw, unique, cancelled) = (%d, %d, %d), reference (%d, %d, %d)",
				seed, st.Raw, st.Unique, st.Cancelled, raw, unique, cancelled)
		}
		if len(c.Minus) != minus {
			t.Fatalf("seed %d: |φ⁻af| = %d, reference %d", seed, len(c.Minus), minus)
		}
		var got []classShape
		for _, tm := range c.Minus {
			if !tm.Formula.IsCored() {
				t.Fatalf("seed %d: φ⁻af term not marked cored; the plan compiler would core it again", seed)
			}
			got = append(got, classShape{tm.Coeff.String(), tm.Formula.A.Size(), len(tm.Formula.S)})
		}
		if fmt.Sprint(sortedShapes(got)) != fmt.Sprint(shapes) {
			t.Fatalf("seed %d: φ⁻af classes %v, reference %v", seed, got, shapes)
		}

		terms, err := ie.RawTerms(c.Free)
		if err != nil {
			t.Fatal(err)
		}
		keys, refKeys := make([]string, len(terms)), make([]string, len(terms))
		for i, tm := range terms {
			cored := tm.Formula.Core()
			if keys[i], err = cored.CanonicalKey(); err != nil {
				t.Fatal(err)
			}
			if refKeys[i], err = refCanonicalKey(cored); err != nil {
				t.Fatal(err)
			}
		}
		for i := range terms {
			for j := range terms {
				if (keys[i] == keys[j]) != (refKeys[i] == refKeys[j]) {
					t.Fatalf("seed %d: terms %d and %d: keys equal %v, reference keys equal %v",
						seed, i, j, keys[i] == keys[j], refKeys[i] == refKeys[j])
				}
			}
		}
	}
}
