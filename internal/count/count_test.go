package count

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

func edgeSig() *structure.Signature { return workload.EdgeSig() }

func mustPPFromQuery(t *testing.T, q logic.Query, sig *structure.Signature) pp.PP {
	t.Helper()
	ds := q.Disjuncts()
	if len(ds) != 1 {
		t.Fatalf("query %v is not primitive positive (%d disjuncts)", q, len(ds))
	}
	p, err := pp.FromDisjunct(sig, q.Lib, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// exampleStructC is the 4-element structure C of Example 4.3:
// E = {(1,2),(2,3),(3,4),(4,4)}.
func exampleStructC() *structure.Structure {
	return parser.MustStructure(`E(1,2). E(2,3). E(3,4). E(4,4).`, edgeSig())
}

// unionRef counts p on b by set-union enumeration (EPUnion): the
// engine-free reference the engine is checked against.
func unionRef(p pp.PP, b *structure.Structure) (*big.Int, error) {
	return EPUnion([]pp.PP{p}, b)
}

// assertAllEngines fails t unless both the engine and the union reference
// count p on b as want.
func assertAllEngines(t *testing.T, p pp.PP, b *structure.Structure, want *big.Int) {
	t.Helper()
	for name, count := range map[string]func(pp.PP, *structure.Structure) (*big.Int, error){"engine": engine.CountOnce, "union": unionRef} {
		got, err := count(p, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: count = %v, want %v (formula %v)", name, got, want, p)
		}
	}
}

func TestSingleAtomCount(t *testing.T) {
	// |E(x,y)| = number of E-tuples.
	q := parser.MustQuery("q(x,y) := E(x,y)")
	p := mustPPFromQuery(t, q, edgeSig())
	b := exampleStructC()
	assertAllEngines(t, p, b, big.NewInt(4))
}

func TestLiberalVariableSemantics(t *testing.T) {
	// Example 2.1 / 4.1: ψ(x,y,z) = E(x,y) with liberal z not in any atom:
	// count = |E| · |B|.
	q := parser.MustQuery("q(x,y,z) := E(x,y)")
	p := mustPPFromQuery(t, q, edgeSig())
	b := exampleStructC()
	assertAllEngines(t, p, b, big.NewInt(16))
}

func TestQuantifiedPath(t *testing.T) {
	// p(s,t) := ∃u. E(s,u) ∧ E(u,t) on C: walks of length 2:
	// 1→2→3, 2→3→4, 3→4→4, 4→4→4 ⇒ 4 answers.
	q := workload.PathQuery(2)
	p := mustPPFromQuery(t, q, edgeSig())
	assertAllEngines(t, p, exampleStructC(), big.NewInt(4))
}

func TestSentenceCount(t *testing.T) {
	// Boolean query ∃u. E(u,u): true on C (loop at 4), false on a path.
	q := parser.MustQuery("q() := exists u. E(u,u)")
	p := mustPPFromQuery(t, q, edgeSig())
	assertAllEngines(t, p, exampleStructC(), big.NewInt(1))
	path := parser.MustStructure(`E(1,2). E(2,3).`, edgeSig())
	assertAllEngines(t, p, path, big.NewInt(0))
}

func TestSentenceWithLiberalVars(t *testing.T) {
	// θ(x,y) := ∃u. E(u,u): liberal x,y isolated ⇒ count = |B|² or 0.
	q := parser.MustQuery("th(x,y) := exists u. E(u,u)")
	p := mustPPFromQuery(t, q, edgeSig())
	assertAllEngines(t, p, exampleStructC(), big.NewInt(16))
	path := parser.MustStructure(`E(1,2). E(2,3).`, edgeSig())
	assertAllEngines(t, p, path, big.NewInt(0))
}

func TestDisconnectedComponentsMultiply(t *testing.T) {
	// φ(x,y) = E(x,x') ∧ E(y,y') quantified x',y' — wait, keep simple:
	// φ(x,y) := (∃u. E(x,u)) ∧ (∃v. E(y,v)): count = (#src)².
	q := parser.MustQuery("q(x,y) := (exists u. E(x,u)) & (exists v. E(y,v))")
	p := mustPPFromQuery(t, q, edgeSig())
	// C: sources with out-edges: 1,2,3,4 ⇒ 16.
	assertAllEngines(t, p, exampleStructC(), big.NewInt(16))
	// Path 1→2→3: sources 1,2 ⇒ 4.
	path := parser.MustStructure(`E(1,2). E(2,3).`, edgeSig())
	assertAllEngines(t, p, path, big.NewInt(4))
}

func TestTriangleCount(t *testing.T) {
	// Free triangle query on K4 (symmetric): ordered triangles = 4·3·2 = 24.
	q := workload.CliqueQuery(3)
	p := mustPPFromQuery(t, q, edgeSig())
	k4 := workload.GraphStructure(workload.CompleteGraph(4))
	assertAllEngines(t, p, k4, big.NewInt(24))
}

func TestEPDirectMatchesEngines(t *testing.T) {
	// φ(w,x,y,z) from Example 4.1.
	q := parser.MustQuery("phi(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))")
	b := exampleStructC()
	direct, err := EPDirect(q, b)
	if err != nil {
		t.Fatal(err)
	}
	// Union enumeration over the disjuncts must agree.
	var pps []pp.PP
	for _, d := range q.Disjuncts() {
		p, err := pp.FromDisjunct(edgeSig(), q.Lib, d)
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
		t.Fatalf("EPDirect = %v, EPUnion = %v", direct, union)
	}
	if direct.Sign() <= 0 {
		t.Fatal("Example 4.1 count should be positive on C")
	}
}

func TestEvalEPUnboundVariable(t *testing.T) {
	b := exampleStructC()
	_, err := EvalEP(b, Env{}, logic.Atom{Rel: "E", Args: []logic.Var{"x", "y"}})
	if err == nil {
		t.Fatal("unbound variable should error")
	}
}

func TestSignatureMismatchRejected(t *testing.T) {
	q := parser.MustQuery("q(x) := F(x)")
	sig := structure.MustSignature(structure.RelSym{Name: "F", Arity: 1})
	p := mustPPFromQuery(t, q, sig)
	b := exampleStructC() // over {E/2}
	if _, err := engine.CountOnce(p, b); err == nil {
		t.Fatal("signature mismatch should error")
	}
}

func TestEmptyStructureRejected(t *testing.T) {
	q := parser.MustQuery("q(x,y) := E(x,y)")
	p := mustPPFromQuery(t, q, edgeSig())
	empty := structure.New(edgeSig())
	if _, err := engine.CountOnce(p, empty); err == nil {
		t.Fatal("empty universe should error")
	}
}

// enginesAgree fails t unless the engine counts p on b as the union
// reference does, and returns that count.
func enginesAgree(t *testing.T, name string, p pp.PP, b *structure.Structure) *big.Int {
	t.Helper()
	want, err := unionRef(p, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.CountOnce(p, b)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: engine %v != union %v\nformula: %v\nstruct: %v",
			name, got, want, p, b)
	}
	return want
}

// Cross-engine consistency on random pp-queries and random structures:
// the heart of the counting test suite.
func TestEnginesAgreeOnRandomInstances(t *testing.T) {
	sig := edgeSig()
	for seed := int64(0); seed < 30; seed++ {
		q := workload.RandomPPQuery(sig, 4, 2, 3, seed)
		b := workload.RandomStructure(sig, 4, 0.35, seed+1000)
		enginesAgree(t, fmt.Sprintf("seed %d", seed), mustPPFromQuery(t, q, sig), b)
	}
}

// Theorem 2.11's tractable side as |B| grows: the engine counts the path
// query as the union reference does on sparse random graphs.
func TestPaperPathQueryScaling(t *testing.T) {
	p := mustPPFromQuery(t, workload.PathQuery(4), edgeSig())
	for _, n := range []int{12, 20} {
		name := fmt.Sprintf("path(4) on G(%d, 4/n)", n)
		v := enginesAgree(t, name, p, workload.GraphStructure(workload.ER(n, 4.0/float64(n), int64(n))))
		t.Logf("%s: %v answers, engine and union agree", name, v)
	}
}

// Theorem 2.11's tractable side as the parameter grows: the engine
// counts free paths as the union reference does.
func TestPaperFreePathParameter(t *testing.T) {
	b := workload.GraphStructure(workload.ER(9, 0.35, 17))
	for k := 1; k <= 4; k++ {
		name := fmt.Sprintf("free-path(%d) on G(9, 0.35)", k)
		v := enginesAgree(t, name, mustPPFromQuery(t, workload.FreePathQuery(k), edgeSig()), b)
		t.Logf("%s: %v answers, engine and union agree", name, v)
	}
}

// Property-based: the engine equals brute force (EPDirect) on tiny
// random instances.
func TestFPTMatchesBruteProperty(t *testing.T) {
	sig := edgeSig()
	f := func(qSeed, bSeed int64) bool {
		q := workload.RandomPPQuery(sig, 3, 2, 2, qSeed)
		b := workload.RandomStructure(sig, 3, 0.4, bSeed)
		p := mustPPFromQuery(nil2t(), q, sig)
		want, err := EPDirect(q, b)
		if err != nil {
			return false
		}
		got, err := engine.CountOnce(p, b)
		if err != nil {
			return false
		}
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// nil2t lets helper funcs taking *testing.T be reused inside quick.Check
// closures (a panic there fails the property anyway).
func nil2t() *testing.T { return new(testing.T) }

func TestProductCountMultiplies(t *testing.T) {
	// |ψ(D1×D2)| = |ψ(D1)|·|ψ(D2)| — the key identity of Example 4.3.
	q := workload.PathQuery(2)
	p := mustPPFromQuery(t, q, edgeSig())
	d1 := exampleStructC()
	d2 := parser.MustStructure(`E(a,b). E(b,a). E(b,c).`, edgeSig())
	prod, err := structure.Product(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := engine.CountOnce(p, d1)
	c2, _ := engine.CountOnce(p, d2)
	cp, _ := engine.CountOnce(p, prod)
	want := new(big.Int).Mul(c1, c2)
	if cp.Cmp(want) != 0 {
		t.Fatalf("product count %v != %v·%v", cp, c1, c2)
	}
}

func TestPadLoopsPositivity(t *testing.T) {
	// On B+kI every pp-formula has a positive count (proof of Thm 5.9).
	qs := []logic.Query{
		workload.PathQuery(3),
		workload.CliqueQuery(3),
		workload.StarQuery(3),
	}
	base := parser.MustStructure(`E(1,2).`, edgeSig())
	padded := structure.PadLoops(base, 1)
	for _, q := range qs {
		p := mustPPFromQuery(t, q, edgeSig())
		got, err := engine.CountOnce(p, padded)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sign() <= 0 {
			t.Fatalf("%s must have positive count on B+I", q.Name)
		}
	}
}

// Regression: a mixed sentence+free union must count |B|^|lib| when a
// sentence disjunct holds — not 1.  The sentence disjunct is deliberately
// built with an empty liberal set (pp.New, not FromDisjunct) to exercise
// the raw-union path.
func TestEPUnionMixedSentenceAndFree(t *testing.T) {
	sig := edgeSig()
	free := mustPPFromQuery(t, mustParseQ(t, "p(x,y) := E(x,y)"), sig)

	// Sentence disjunct ∃u. E(u,u) with S = ∅.
	sa := structure.New(sig)
	u, err := sa.AddElem("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.AddTuple("E", u, u); err != nil {
		t.Fatal(err)
	}
	sentence, err := pp.New(sa, nil)
	if err != nil {
		t.Fatal(err)
	}

	// With a loop the sentence holds: the union is all of B².
	withLoop := parser.MustStructure(`E(1,2). E(3,3).`, sig)
	got, err := EPUnion([]pp.PP{free, sentence}, withLoop)
	if err != nil {
		t.Fatal(err)
	}
	want := structure.PowerSize(withLoop, 2) // |B|^|lib| = 9
	if got.Cmp(want) != 0 {
		t.Fatalf("union with satisfied sentence = %v, want %v", got, want)
	}

	// Without a loop only the free disjunct contributes.
	noLoop := parser.MustStructure(`E(1,2). E(2,3).`, sig)
	got, err = EPUnion([]pp.PP{free, sentence}, noLoop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("union with failed sentence = %v, want 2", got)
	}

	// The parsed form of the same union must agree with EPDirect.
	q := mustParseQ(t, "p(x,y) := E(x,y) | exists u. E(u,u)")
	var pps []pp.PP
	for _, d := range q.Disjuncts() {
		p, err := pp.FromDisjunct(sig, q.Lib, d)
		if err != nil {
			t.Fatal(err)
		}
		pps = append(pps, p)
	}
	for _, b := range []*structure.Structure{withLoop, noLoop} {
		direct, err := EPDirect(q, b)
		if err != nil {
			t.Fatal(err)
		}
		union, err := EPUnion(pps, b)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cmp(union) != 0 {
			t.Fatalf("EPUnion %v != EPDirect %v", union, direct)
		}
	}
}
