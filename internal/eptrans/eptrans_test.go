package eptrans

import (
	"math/big"
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

func edgeSig() *structure.Signature { return workload.EdgeSig() }

// fptCounter is the pp oracle used by the forward reduction in tests.
func fptCounter(p pp.PP, b *structure.Structure) (*big.Int, error) {
	return engine.CountOnce(p, b)
}

// epOracleFor returns an EP oracle computed by the forward pipeline (an
// independently correct engine, cross-checked elsewhere against EPDirect).
func epOracleFor(c *Compiled) EPOracle {
	return func(b *structure.Structure) (*big.Int, error) {
		return CountEPViaPP(c, b, fptCounter)
	}
}

func compile(t *testing.T, src string) *Compiled {
	t.Helper()
	q := parser.MustQuery(src)
	sig, err := InferStructSignature(q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, sig)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMinimizeDropsEntailingDisjunct(t *testing.T) {
	// E(x,y) ∨ (E(x,y) ∧ E(y,x)): the second disjunct entails the first.
	c := compile(t, "q(x,y) := E(x,y) | E(x,y) & E(y,x)")
	if len(c.Disjuncts) != 1 {
		t.Fatalf("normalized disjuncts = %d, want 1", len(c.Disjuncts))
	}
	if c.Disjuncts[0].A.Rel("E").Len() != 1 {
		t.Fatal("wrong disjunct survived")
	}
}

func TestMinimizeKeepsOneOfEquivalentPair(t *testing.T) {
	// Two logically equivalent disjuncts (same formula twice).
	c := compile(t, "q(x,y) := E(x,y) | E(x,y)")
	if len(c.Disjuncts) != 1 {
		t.Fatalf("normalized disjuncts = %d, want 1", len(c.Disjuncts))
	}
}

// Normalisation (Minimize) before the φ* expansion, on unions of the
// form ψ ∨ (ψ ∧ extra) ∨ renamed-ψ: it drops the disjuncts that entail
// a survivor, and the φ* expansions with and without it count the same.
func TestPaperMinimizeRedundantUnions(t *testing.T) {
	queries := []struct {
		src  string
		want int // disjuncts left after Minimize
	}{
		{"q(x,y) := E(x,y) | E(x,y) & E(y,x) | E(x,y) & E(x,y)", 1},
		{"q(x,y) := E(x,y) | E(x,y) & E(y,y) | E(x,y) & E(x,x)", 1},
		{"q(s,t) := (exists u. E(s,u) & E(u,t)) | (exists u, v. E(s,u) & E(u,v) & E(v,t) & E(s,t)) | E(s,t)", 2},
	}
	sig := edgeSig()
	b := workload.RandomStructure(sig, 4, 0.4, 5)
	for _, tc := range queries {
		q := parser.MustQuery(tc.src)
		var raw []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, p)
		}
		minimized, err := Minimize(raw)
		if err != nil {
			t.Fatal(err)
		}
		starRaw, err := ie.PhiStar(raw)
		if err != nil {
			t.Fatal(err)
		}
		starMin, err := ie.PhiStar(minimized)
		if err != nil {
			t.Fatal(err)
		}
		vRaw, err := ie.Count(starRaw, b, fptCounter)
		if err != nil {
			t.Fatal(err)
		}
		vMin, err := ie.Count(starMin, b, fptCounter)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: disjuncts %d → %d, φ* terms %d → %d, count %v", tc.src,
			len(raw), len(minimized), len(starRaw), len(starMin), vMin)
		if len(minimized) != tc.want || vRaw.Cmp(vMin) != 0 {
			t.Fatalf("%s: %d disjuncts minimised to %d, want %d; φ* counts %v without, %v with",
				tc.src, len(raw), len(minimized), tc.want, vRaw, vMin)
		}
	}
}

// Example 5.21: θ = φ1 ∨ φ2 ∨ φ3 ∨ θ1 with the Example 4.2 disjuncts and
// the sentence θ1 = ∃a,b,c,d. E(a,b) ∧ E(b,c) ∧ E(c,d).
// Expected: θ*af = {3·φ1, -2·(φ1∧φ3)}, φ1∧φ3 entails θ1, so
// θ⁺ = {φ1, θ1}.
func TestExample521PhiPlus(t *testing.T) {
	c := compile(t, `th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a,b,c,d. E(a,b) & E(b,c) & E(c,d)`)
	if len(c.Sentences) != 1 {
		t.Fatalf("sentence disjuncts = %d, want 1", len(c.Sentences))
	}
	if len(c.Free) != 3 {
		t.Fatalf("free disjuncts = %d, want 3", len(c.Free))
	}
	if len(c.Star) != 2 {
		t.Fatalf("θ*af terms = %d, want 2", len(c.Star))
	}
	if len(c.Minus) != 1 {
		t.Fatalf("θ⁻af terms = %d, want 1 (the 3-path term entails θ1)", len(c.Minus))
	}
	if c.Minus[0].Coeff.Int64() != 3 {
		t.Fatalf("surviving coefficient = %v, want 3", c.Minus[0].Coeff)
	}
	if len(c.Plus) != 2 {
		t.Fatalf("θ⁺ size = %d, want 2 ({φ1, θ1})", len(c.Plus))
	}
}

// TestForwardReductionMatchesDirect is
// TestPaperForwardReductionMatchesDirect under the package's own name.
func TestForwardReductionMatchesDirect(t *testing.T) { TestPaperForwardReductionMatchesDirect(t) }

// Forward reduction correctness (Theorem 3.1, Example 4.1): CountEPViaPP
// ≡ EPDirect ≡ union enumeration over the disjuncts, on Example 4.3's C
// and random instances, including queries with sentence disjuncts.
func TestPaperForwardReductionMatchesDirect(t *testing.T) {
	queries := []string{
		"q(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))",                 // Example 4.1
		"q(w,x,y,z) := E(x,y) & E(y,z) | E(z,w) & E(w,x) | E(w,x) & E(x,y)", // Example 4.2
		"q(x,y) := E(x,y) | exists u. E(u,u)",
		"q(x) := exists u. E(x,u) | exists v. E(v,x)",
		"q() := exists u,v. E(u,v) & E(v,u)",
		"q(x,y) := E(x,y) | E(y,x)",
	}
	for _, src := range queries {
		c := compile(t, src)
		var pps []pp.PP
		for _, d := range c.Query.Disjuncts() {
			p, err := pp.FromDisjunct(c.Sig, c.Query.Lib, d)
			if err != nil {
				t.Fatal(err)
			}
			pps = append(pps, p)
		}
		structs := []*structure.Structure{parser.MustStructure(example43C, c.Sig)}
		for seed := int64(0); seed < 6; seed++ {
			structs = append(structs, workload.RandomStructure(c.Sig, 3, 0.4, seed))
		}
		for i, b := range structs {
			want, err := count.EPDirect(c.Query, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CountEPViaPP(c, b, fptCounter)
			if err != nil {
				t.Fatalf("%s structure %d: %v", src, i, err)
			}
			union, err := count.EPUnion(pps, b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 || union.Cmp(want) != 0 {
				t.Fatalf("%s structure %d: forward reduction %v, union %v, direct %v\nB = %v",
					src, i, got, union, want, b)
			}
			t.Logf("%s  structure %d: direct = pipeline = union = %v", src, i, want)
		}
	}
}

// example43C is the 4-element structure C of Example 4.3.
const example43C = `E(1,2). E(2,3). E(3,4). E(4,4).`

// TestExample43StructureSeparates is
// TestPaperExample43StructureSeparates under the package's own name.
func TestExample43StructureSeparates(t *testing.T) { TestPaperExample43StructureSeparates(t) }

// Example 4.3: with the paper's 4-element structure C the three formulas
// φ1, φ2, φ1∧φ2 have pairwise distinct positive counts, so each count
// |ψ(B)|, ψ ∈ φ⁺, is recovered exactly from the ep oracle by products
// with C and a Vandermonde solve.
func TestPaperExample43StructureSeparates(t *testing.T) {
	cStruct := parser.MustStructure(example43C, edgeSig())
	c := compile(t, "q(w,x,y,z) := E(x,y) & E(w,x) | E(x,y) & E(y,z) & E(z,z)")
	if len(c.Star) != 3 {
		t.Fatalf("star terms = %d, want 3", len(c.Star))
	}
	var vals []*big.Int
	for _, s := range c.Star {
		v, err := engine.CountOnce(s.Formula, cStruct)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	t.Logf("φ* counts on C: %v", vals)
	for i := range vals {
		if vals[i].Sign() <= 0 {
			t.Fatalf("term %d count %v not positive", i, vals[i])
		}
		for j := i + 1; j < len(vals); j++ {
			if vals[i].Cmp(vals[j]) == 0 {
				t.Fatalf("terms %d and %d have equal counts %v on Example 4.3's C", i, j, vals[i])
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		b := workload.RandomStructure(c.Sig, 3, 0.45, seed+10)
		calls := 0
		oracle := func(y *structure.Structure) (*big.Int, error) {
			calls++
			return CountEPViaPP(c, y, fptCounter)
		}
		for pi, psi := range c.Plus {
			calls = 0
			want, err := engine.CountOnce(psi, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CountPPViaEP(c, psi, b, oracle)
			if err != nil {
				t.Fatalf("seed %d ψ%d: %v", seed, pi+1, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d ψ%d: recovered %v, direct %v", seed, pi+1, got, want)
			}
			t.Logf("random#%d ψ%d: direct = recovered = %v (%d oracle calls)", seed, pi+1, want, calls)
		}
	}
}

// Backward reduction: every ψ ∈ φ⁺ is counted exactly through the ep
// oracle (Example 4.3's recovery generalized by Theorem 5.20).
func TestBackwardReductionMatchesDirect(t *testing.T) {
	queries := []string{
		"q(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))", // Example 4.1/4.3
		"q(x,y) := E(x,y) | E(y,x)",
		"q(x,y) := E(x,y) | exists u. E(u,u)",
	}
	for _, src := range queries {
		c := compile(t, src)
		oracle := epOracleFor(c)
		for seed := int64(0); seed < 3; seed++ {
			b := workload.RandomStructure(c.Sig, 3, 0.45, 100+seed)
			for pi, psi := range c.Plus {
				want, err := engine.CountOnce(psi, b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CountPPViaEP(c, psi, b, oracle)
				if err != nil {
					t.Fatalf("%s ψ#%d seed %d: %v", src, pi, seed, err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("%s ψ#%d seed %d: backward reduction %v != direct %v\nψ = %v\nB = %v",
						src, pi, seed, got, want, psi, b)
				}
			}
		}
	}
}

// Sentence disjunct handling of the backward reduction (the A×B
// maximum-count test from Appendix A).
func TestBackwardReductionSentence(t *testing.T) {
	c := compile(t, "q(x,y) := E(x,y) & E(y,x) | exists u. E(u,u)")
	if len(c.Sentences) != 1 {
		t.Fatalf("sentences = %d, want 1", len(c.Sentences))
	}
	theta := c.Sentences[0]
	oracle := epOracleFor(c)

	withLoop := parser.MustStructure(`E(1,2). E(2,2).`, edgeSig())
	got, err := CountPPViaEP(c, theta, withLoop, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(4)) != 0 { // |B|² = 4
		t.Fatalf("sentence count on loop structure = %v, want 4", got)
	}
	noLoop := parser.MustStructure(`E(1,2). E(2,3).`, edgeSig())
	got, err = CountPPViaEP(c, theta, noLoop, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("sentence count on loop-free structure = %v, want 0", got)
	}
}

func TestPeelClass(t *testing.T) {
	// Example 5.7's pair: φ1(x,y) = E(x,y), φ2(x,y) = ∃z. E(x,y) ∧ F(z):
	// semi-counting equivalent, not counting equivalent, structures not
	// homomorphically equivalent.
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "F", Arity: 1},
	)
	lib := []logic.Var{"x", "y"}
	q1 := parser.MustQuery("p(x,y) := E(x,y)")
	q2 := parser.MustQuery("p(x,y) := exists z. E(x,y) & F(z)")
	p1, err := pp.FromDisjunct(sig, lib, q1.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pp.FromDisjunct(sig, lib, q2.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	coeffs := []*big.Int{big.NewInt(2), big.NewInt(-3)}
	sumOracle := func(y *structure.Structure) (*big.Int, error) {
		v1, err := count.EPUnion([]pp.PP{p1}, y)
		if err != nil {
			return nil, err
		}
		v2, err := count.EPUnion([]pp.PP{p2}, y)
		if err != nil {
			return nil, err
		}
		out := new(big.Int).Mul(coeffs[0], v1)
		return out.Add(out, new(big.Int).Mul(coeffs[1], v2)), nil
	}
	b := parser.MustStructure(`E(1,2). E(2,3). F(1).`, sig)
	for target, p := range []pp.PP{p1, p2} {
		want, err := count.EPUnion([]pp.PP{p}, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PeelClass([]pp.PP{p1, p2}, coeffs, target, b, sumOracle)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("target %d: peel %v != direct %v", target, got, want)
		}
	}
}

func TestDistinguishPair(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x", "y"}
	p1, _ := pp.FromDisjunct(sig, lib, parser.MustQuery("p(x,y) := E(x,y)").Disjuncts()[0])
	p2, _ := pp.FromDisjunct(sig, lib, parser.MustQuery("p(x,y) := E(x,y) & E(y,x)").Disjuncts()[0])
	d, err := DistinguishPair(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := engine.CountOnce(p1, d)
	v2, _ := engine.CountOnce(p2, d)
	if v1.Sign() <= 0 || v2.Sign() <= 0 || v1.Cmp(v2) == 0 {
		t.Fatalf("distinguisher failed: %v vs %v on %v", v1, v2, d)
	}
}

func TestDistinguishSet(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x", "y"}
	mk := func(src string) pp.PP {
		p, err := pp.FromDisjunct(sig, lib, parser.MustQuery(src).Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	reps := []pp.PP{
		mk("p(x,y) := E(x,y)"),
		mk("p(x,y) := E(x,y) & E(y,x)"),
		mk("p(x,y) := E(x,x) & E(y,y)"),
	}
	c, err := DistinguishSet(reps)
	if err != nil {
		t.Fatal(err)
	}
	var vals []*big.Int
	for _, r := range reps {
		v, err := engine.CountOnce(r, c)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() <= 0 {
			t.Fatalf("non-positive count %v on distinguisher", v)
		}
		vals = append(vals, v)
	}
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if vals[i].Cmp(vals[j]) == 0 {
				t.Fatalf("counts %d and %d collide: %v", i, j, vals[i])
			}
		}
	}
	if !c.HasAllLoopElem() {
		t.Fatal("distinguisher must keep an all-loop element")
	}
}

// TestInterreductionRandom is TestPaperTheorem31Interreduction under the
// package's own name.
func TestInterreductionRandom(t *testing.T) { TestPaperTheorem31Interreduction(t) }

// End-to-end interreducibility on random ep-queries: the operational
// content of Theorem 3.1, count[Φ] ≡ count[Φ⁺].
func TestPaperTheorem31Interreduction(t *testing.T) {
	sig := edgeSig()
	for seed := int64(0); seed < 8; seed++ {
		q := workload.RandomEPQuery(sig, 2, 3, 2, 2, seed)
		c, err := Compile(q, sig)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := workload.RandomStructure(sig, 3, 0.4, seed+500)
		// Forward.
		want, err := count.EPDirect(q, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CountEPViaPP(c, b, fptCounter)
		if err != nil {
			t.Fatalf("seed %d forward: %v", seed, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: forward %v != direct %v (query %v)", seed, got, want, q)
		}
		// Backward, for every member of φ⁺.
		oracle := epOracleFor(c)
		for pi, psi := range c.Plus {
			pw, err := engine.CountOnce(psi, b)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := CountPPViaEP(c, psi, b, oracle)
			if err != nil {
				t.Fatalf("seed %d ψ#%d: %v", seed, pi, err)
			}
			if pg.Cmp(pw) != 0 {
				t.Fatalf("seed %d ψ#%d: backward %v != direct %v", seed, pi, pg, pw)
			}
		}
		t.Logf("seed %d: %d disjuncts, |φ*| = %d, |φ⁺| = %d; forward and backward exact",
			seed, len(c.Disjuncts), len(c.Star), len(c.Plus))
	}
}

func TestCompileRejectsUnknownFormula(t *testing.T) {
	q := parser.MustQuery("q(x) := F(x)")
	if _, err := Compile(q, edgeSig()); err == nil {
		t.Fatal("compiling against a signature missing F should error")
	}
}
