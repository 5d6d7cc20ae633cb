package pp_test

// The equivalence decisions of Section 5 against observed counts.  They
// need the counting engines, which import pp, so they live in the
// external test package.

import (
	"fmt"
	"testing"

	"repro/internal/count"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

func mustParsePP(t *testing.T, sig *structure.Signature, lib []logic.Var, src string) pp.PP {
	t.Helper()
	p, err := pp.FromDisjunct(sig, lib, parser.MustQuery(src).Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// equivCorpus is 14 small random structures over sig, each also padded
// with an all-loop element (B + I, on which every pp-formula has a
// positive count).
func equivCorpus(sig *structure.Signature) []*structure.Structure {
	var out []*structure.Structure
	for seed := int64(0); seed < 14; seed++ {
		b := workload.RandomStructure(sig, 2+int(seed%3), 0.45, seed)
		out = append(out, b, structure.PadLoops(b, 1))
	}
	return out
}

// equalOnCorpus reports whether p1 and p2 count the same on every corpus
// structure, and otherwise the index of the first that separates them.
// With positiveOnly it skips structures on which either count is zero
// (Definition 5.6).
func equalOnCorpus(t *testing.T, p1, p2 pp.PP, corpus []*structure.Structure, positiveOnly bool) (bool, int) {
	t.Helper()
	for i, b := range corpus {
		v1, err := count.EPUnion([]pp.PP{p1}, b)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := count.EPUnion([]pp.PP{p2}, b)
		if err != nil {
			t.Fatal(err)
		}
		if positiveOnly && (v1.Sign() == 0 || v2.Sign() == 0) {
			continue
		}
		if v1.Cmp(v2) != 0 {
			return false, i
		}
	}
	return true, -1
}

// Theorem 5.4: counting equivalence is decided by renaming equivalence
// of the cores.  Every decided-equivalent pair counts the same on the
// corpus and the corpus separates every refuted one; the named pairs
// have known answers.
func TestPaperTheorem54CountingEquivalence(t *testing.T) {
	sig := workload.EdgeSig()
	xy := []logic.Var{"x", "y"}
	st := []logic.Var{"s", "t"}
	type pair struct {
		name   string
		p1, p2 pp.PP
		want   int // 1 equivalent, 0 not, -1 unknown (random)
	}
	pairs := []pair{
		{"renamed-edge (Example 5.2)", mustParsePP(t, sig, xy, "p(x,y) := E(x,y)"),
			mustParsePP(t, sig, []logic.Var{"w", "z"}, "p(w,z) := E(w,z)"), 1},
		{"renamed-path", mustParsePP(t, sig, []logic.Var{"a", "b"}, "p(a,b) := exists m. E(a,m) & E(m,b)"),
			mustParsePP(t, sig, st, "p(s,t) := exists u. E(s,u) & E(u,t)"), 1},
		{"redundant-twin", mustParsePP(t, sig, []logic.Var{"x"}, "p(x) := exists u. E(x,u)"),
			mustParsePP(t, sig, []logic.Var{"x"}, "p(x) := exists u, v. E(x,u) & E(x,v)"), 1},
		{"edge-vs-2cycle", mustParsePP(t, sig, xy, "p(x,y) := E(x,y)"),
			mustParsePP(t, sig, xy, "p(x,y) := E(x,y) & E(y,x)"), 0},
		{"path2-vs-path3", mustParsePP(t, sig, st, "p(s,t) := exists u. E(s,u) & E(u,t)"),
			mustParsePP(t, sig, st, "p(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)"), 0},
	}
	for seed := int64(0); seed < 6; seed++ {
		q1 := workload.RandomPPQuery(sig, 3, 2, 2, seed)
		q2 := workload.RandomPPQuery(sig, 3, 2, 2, seed+100)
		p1, err := pp.FromDisjunct(sig, q1.Lib, q1.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := pp.FromDisjunct(sig, q2.Lib, q2.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{fmt.Sprintf("random#%d", seed), p1, p2, -1})
	}
	corpus := equivCorpus(sig)
	for _, pr := range pairs {
		decided, err := pp.CountingEquivalent(pr.p1, pr.p2)
		if err != nil {
			t.Fatal(err)
		}
		equal, witness := equalOnCorpus(t, pr.p1, pr.p2, corpus, false)
		t.Logf("%-27s decided %-5v  equal on corpus %v (witness %d)", pr.name, decided, equal, witness)
		if equal != decided {
			t.Errorf("%s: decided %v, but equal on corpus is %v (witness %d)", pr.name, decided, equal, witness)
		}
		if pr.want >= 0 && decided != (pr.want == 1) {
			t.Errorf("%s: decided %v, want %v", pr.name, decided, pr.want == 1)
		}
	}
}

// Theorem 5.9: semi-counting equivalence (equal counts wherever both are
// positive) is counting equivalence of the φ̂ parts.  Example 5.7 is
// semi-counting but not counting equivalent; counting equivalence
// implies semi-counting equivalence.
func TestPaperTheorem59SemiCountingEquivalence(t *testing.T) {
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "F", Arity: 1},
	)
	xy := []logic.Var{"x", "y"}
	edge := mustParsePP(t, sig, xy, "p(x,y) := E(x,y)")
	pairs := []struct {
		name    string
		p1, p2  pp.PP
		sce, ce bool
	}{
		{"Example 5.7", edge, mustParsePP(t, sig, xy, "p(x,y) := exists z. E(x,y) & F(z)"), true, false},
		{"sentence-2cycle", edge, mustParsePP(t, sig, xy, "p(x,y) := exists u, v. E(x,y) & E(u,v) & E(v,u)"), true, false},
		{"edge-vs-2cycle", edge, mustParsePP(t, sig, xy, "p(x,y) := E(x,y) & E(y,x)"), false, false},
	}
	corpus := equivCorpus(sig)
	for _, pr := range pairs {
		sce, err := pp.SemiCountingEquivalent(pr.p1, pr.p2)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := pp.CountingEquivalent(pr.p1, pr.p2)
		if err != nil {
			t.Fatal(err)
		}
		equal, witness := equalOnCorpus(t, pr.p1, pr.p2, corpus, true)
		t.Logf("%-16s sc-eq %-5v  c-eq %-5v  equal where positive %v (witness %d)", pr.name, sce, ce, equal, witness)
		if sce != pr.sce || ce != pr.ce {
			t.Errorf("%s: decided sc-eq %v, c-eq %v; want %v, %v", pr.name, sce, ce, pr.sce, pr.ce)
		}
		if ce && !sce {
			t.Errorf("%s: counting equivalent but not semi-counting equivalent", pr.name)
		}
		if equal != sce {
			t.Errorf("%s: sc-eq %v, but equal where positive on corpus is %v (witness %d)", pr.name, sce, equal, witness)
		}
	}
}
