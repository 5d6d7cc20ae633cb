package count

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Random ep-queries: EPDirect, EPUnion and inclusion–exclusion over the
// raw disjuncts must agree.
func TestEPEnginesAgreeOnRandomQueries(t *testing.T) {
	sig := workload.EdgeSig()
	for seed := int64(0); seed < 20; seed++ {
		q := workload.RandomEPQuery(sig, 2, 3, 2, 2, seed)
		b := workload.RandomStructure(sig, 3, 0.4, seed+333)
		direct, err := EPDirect(q, b)
		if err != nil {
			t.Fatal(err)
		}
		var pps []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				t.Fatal(err)
			}
			pps = append(pps, p)
		}
		union, err := EPUnion(pps, b)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cmp(union) != 0 {
			t.Fatalf("seed %d: direct %v != union %v (query %v)", seed, direct, union, q)
		}
		star, err := ie.PhiStar(pps)
		if err != nil {
			t.Fatal(err)
		}
		viaIE, err := ie.Count(star, b, func(p pp.PP, s *structure.Structure) (*big.Int, error) {
			return PP(p, s)
		})
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cmp(viaIE) != 0 {
			t.Fatalf("seed %d: direct %v != IE %v (query %v)", seed, direct, viaIE, q)
		}
	}
}

// Multi-relation signature with mixed arities: all pp engines agree.
func TestEnginesAgreeMixedArity(t *testing.T) {
	sig := structure.MustSignature(
		structure.RelSym{Name: "R", Arity: 3},
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "P", Arity: 1},
	)
	queries := []string{
		"q(x,y) := exists z. R(x,y,z) & P(z)",
		"q(x) := R(x,x,x)",
		"q(x,y,z) := R(x,y,z) & E(x,y) & P(z)",
		"q(x) := exists a, b. R(x,a,b) & E(b,a)",
		"q(x,y) := exists u. E(x,u) & E(u,y) & P(u)",
	}
	for _, src := range queries {
		q := mustParseQ(t, src)
		ds := q.Disjuncts()
		p, err := pp.FromDisjunct(sig, q.Lib, ds[0])
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 5; seed++ {
			b := workload.RandomStructure(sig, 3, 0.3, seed)
			want, err := unionRef(p, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PP(p, b)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s seed %d: engine %v != union %v", src, seed, got, want)
			}
		}
	}
}

// Counts on disjoint unions: for a CONNECTED liberal formula,
// |φ(B1 ⊎ B2)| = |φ(B1)| + |φ(B2)|... only when the formula is connected
// AND has no sentence components; verify on path queries.
func TestDisjointUnionAdditivityForConnectedQueries(t *testing.T) {
	q := workload.PathQuery(2)
	p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		b1 := workload.RandomStructure(workload.EdgeSig(), 3, 0.5, seed)
		b2 := workload.RandomStructure(workload.EdgeSig(), 3, 0.5, seed+99)
		u, err := structure.DisjointUnion(b1, b2)
		if err != nil {
			t.Fatal(err)
		}
		v1, _ := PP(p, b1)
		v2, _ := PP(p, b2)
		vu, _ := PP(p, u)
		want := new(big.Int).Add(v1, v2)
		if vu.Cmp(want) != 0 {
			t.Fatalf("seed %d: |φ(B1⊎B2)| = %v, want %v + %v", seed, vu, v1, v2)
		}
	}
}

// Monotonicity under adding tuples: answer counts of pp-formulas never
// decrease when facts are added.
func TestMonotoneUnderFacts(t *testing.T) {
	q := workload.PathQuery(3)
	p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 4, 0.2, 5)
	prev, err := PP(p, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			_ = b.AddTuple("E", i, j)
			cur, err := PP(p, b)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Cmp(prev) < 0 {
				t.Fatalf("count decreased after adding E(%d,%d): %v → %v", i, j, prev, cur)
			}
			prev = cur
		}
	}
	// Fully saturated: every pair is an answer.
	want := structure.PowerSize(b, 2)
	if prev.Cmp(want) != 0 {
		t.Fatalf("saturated count = %v, want %v", prev, want)
	}
}

// The B+kI padding identity from the proof of Theorem 5.9: for a formula
// whose components all carry liberal variables, |φ̂(B+kI)| is a polynomial
// in k whose degree-0 coefficient is ∏ |φᵢ(B)|.
func TestPaddingPolynomialIdentity(t *testing.T) {
	// φ = E(x,y) ∧ E(z,z): two liberal components.
	q := mustParseQ(t, "p(x,y,z) := E(x,y) & E(z,z)")
	p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 3, 0.4, 11)
	comps := p.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	// Evaluate |φ(B+kI)| for k = 0..2 and interpolate the polynomial in k:
	// p(k) = ∏ᵢ (|φᵢ(B)| + k·(extra from mapping into loops...)).
	// We only check the proof's key consequence: the counts for k ≥ 1 are
	// positive and the k-sequence is consistent with a degree-≤2
	// polynomial whose value at k=0 is |φ(B)|.
	var vals []*big.Int
	for k := 0; k <= 3; k++ {
		padded := structure.PadLoops(b, k)
		v, err := PP(p, padded)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	// Third differences of a degree-≤2 polynomial vanish.
	d1 := make([]*big.Int, 3)
	for i := 0; i < 3; i++ {
		d1[i] = new(big.Int).Sub(vals[i+1], vals[i])
	}
	d2 := make([]*big.Int, 2)
	for i := 0; i < 2; i++ {
		d2[i] = new(big.Int).Sub(d1[i+1], d1[i])
	}
	d3 := new(big.Int).Sub(d2[1], d2[0])
	if d3.Sign() != 0 {
		t.Fatalf("|φ(B+kI)| not a degree-≤2 polynomial in k: %v", vals)
	}
}

// Executor overflow: a count exceeding int64 forces the executor's
// int64→big.Int fallback mid-DP and must still be exact.
// hom(P_12, K_41^loop) = 41^13 ≈ 2^69.6.
func TestExecutorOverflowFallsBackToBigInt(t *testing.T) {
	const n, edges = 41, 12
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		if _, err := b.AddElem(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if err := b.AddTuple("E", i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := structure.New(workload.EdgeSig())
	for i := 0; i <= edges; i++ {
		if _, err := a.AddElem(fmt.Sprintf("x%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < edges; i++ {
		if err := a.AddTuple("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Homomorphisms(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(big.NewInt(n), big.NewInt(edges+1), nil)
	if got.Cmp(want) != 0 {
		t.Fatalf("hom count = %v, want %v", got, want)
	}
	if got.IsInt64() {
		t.Fatal("instance too small to exercise the big.Int fallback")
	}
}

func mustParseQ(t *testing.T, src string) logic.Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
