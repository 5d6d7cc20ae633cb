package classify

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

func edgeSig() *structure.Signature { return workload.EdgeSig() }

func singlePP(t *testing.T, q logic.Query) pp.PP {
	t.Helper()
	ds := q.Disjuncts()
	if len(ds) != 1 {
		t.Fatalf("query %v is not primitive positive", q)
	}
	p, err := pp.FromDisjunct(edgeSig(), q.Lib, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyzePathQuery(t *testing.T) {
	// Path query: core tw 1, contract graph = single edge (tw 1).
	q := workload.PathQuery(4)
	v, _, err := ClassifyEP(q, edgeSig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Case != CaseFPT {
		t.Fatalf("path query case = %v, want FPT", v.Case)
	}
	if v.MaxCoreTW != 1 || v.MaxContractTW != 1 {
		t.Fatalf("path widths = (%d,%d), want (1,1)", v.MaxCoreTW, v.MaxContractTW)
	}
	if !v.AllWidthsExact {
		t.Fatal("small query widths should be exact")
	}
}

func TestAnalyzeCliqueSentence(t *testing.T) {
	// ∃-quantified k-clique: contract graph empty (tw ≤ 0), core = K_k.
	q := workload.CliqueSentence(4)
	v, _, err := ClassifyEP(q, edgeSig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Case != CaseClique {
		t.Fatalf("clique sentence case = %v, want CaseClique", v.Case)
	}
	if v.MaxCoreTW != 3 {
		t.Fatalf("K4 core tw = %d, want 3", v.MaxCoreTW)
	}
	if v.MaxContractTW > 0 {
		t.Fatalf("sentence contract tw = %d, want ≤ 0", v.MaxContractTW)
	}
}

func TestAnalyzeFreeClique(t *testing.T) {
	// Free k-clique: contract graph = K_k: case 3.
	q := workload.CliqueQuery(4)
	v, _, err := ClassifyEP(q, edgeSig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Case != CaseSharpClique {
		t.Fatalf("free clique case = %v, want CaseSharpClique", v.Case)
	}
	if v.MaxContractTW != 3 {
		t.Fatalf("free K4 contract tw = %d, want 3", v.MaxContractTW)
	}
}

func TestAnalyzeStarQuery(t *testing.T) {
	// Star with quantified center: the core is a star (tw 1) but the
	// contract graph is K_k: case 3 despite a tree-shaped query.
	q := workload.StarQuery(4)
	v, _, err := ClassifyEP(q, edgeSig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.MaxCoreTW != 1 {
		t.Fatalf("star core tw = %d, want 1", v.MaxCoreTW)
	}
	if v.MaxContractTW != 3 {
		t.Fatalf("star contract tw = %d, want 3 (K4)", v.MaxContractTW)
	}
	if v.Case != CaseSharpClique {
		t.Fatalf("star case = %v, want CaseSharpClique", v.Case)
	}
}

func TestAnalyzePPReportFields(t *testing.T) {
	r := AnalyzePP(singlePP(t, workload.PathQuery(3)))
	if r.NumExistsComponents != 1 {
		t.Fatalf("∃-components = %d, want 1 (the quantified interior)", r.NumExistsComponents)
	}
	if r.MaxInterface != 2 {
		t.Fatalf("max interface = %d, want 2 ({s,t})", r.MaxInterface)
	}
	// Quantifier-free edge: no ∃-components.
	r = AnalyzePP(singlePP(t, workload.PathQuery(1)))
	if r.NumExistsComponents != 0 {
		t.Fatalf("edge query ∃-components = %d, want 0", r.NumExistsComponents)
	}
	if r.Core.A.Size() != 2 {
		t.Fatalf("edge core size = %d", r.Core.A.Size())
	}
}

// TestAnalyzeFamilyTrends is TestPaperTheorem32FamilyCases under the
// package's own name.
func TestAnalyzeFamilyTrends(t *testing.T) { TestPaperTheorem32FamilyCases(t) }

// Theorem 3.2 on the named families: the growth of the core and contract
// widths along k decides the trichotomy case.  Bounded core and contract
// width is case 1; a growing core with bounded contract width is case 2;
// a growing contract width is case 3, even when the query is a tree.
func TestPaperTheorem32FamilyCases(t *testing.T) {
	ks := []int{2, 3, 4, 5}
	families := []struct {
		name                string
		gen                 func(k int) logic.Query
		coreTrend, conTrend Trend
		want                Case
	}{
		{"path", workload.PathQuery, TrendBounded, TrendBounded, CaseFPT},
		{"free-path", workload.FreePathQuery, TrendBounded, TrendBounded, CaseFPT},
		{"clique-sentence", workload.CliqueSentence, TrendGrowing, TrendBounded, CaseClique},
		{"free-clique", workload.CliqueQuery, TrendGrowing, TrendGrowing, CaseSharpClique},
		{"star-quantified-centre", workload.StarQuery, TrendBounded, TrendGrowing, CaseSharpClique},
	}
	for _, fam := range families {
		fv, err := AnalyzeFamily(fam.gen, edgeSig(), ks)
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		for _, pt := range fv.Points {
			t.Logf("%-22s k=%d  core tw %d  contract tw %d", fam.name, pt.K, pt.CoreTW, pt.ContractTW)
		}
		t.Logf("%-22s → %v", fam.name, fv.ImpliedCase)
		if fv.CoreTrend != fam.coreTrend || fv.ContractTrend != fam.conTrend {
			t.Errorf("%s: trends (core %v, contract %v), want (%v, %v)",
				fam.name, fv.CoreTrend, fv.ContractTrend, fam.coreTrend, fam.conTrend)
		}
		if fv.ImpliedCase != fam.want {
			t.Errorf("%s: implied %v, want %v", fam.name, fv.ImpliedCase, fam.want)
		}
	}
}

func TestClassifyDisjunctionWorstCase(t *testing.T) {
	// A union of a path query and a free triangle: φ⁺ contains a term
	// with contract width 2, so the class is case 3 w.r.t. bound 1.
	pathQ := workload.PathQuery(2)
	triQ := workload.CliqueQuery(3)
	f := logic.Or{L: pathQ.F, R: renameToLib(triQ, []logic.Var{"s", "t", "r"})}
	q := logic.MustQuery("mix", []logic.Var{"s", "t", "r"}, f)
	v, _, err := ClassifyEP(q, edgeSig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Case != CaseSharpClique {
		t.Fatalf("mixed query case = %v, want CaseSharpClique", v.Case)
	}
}

// renameToLib rewrites a query's liberal variables to the given names.
func renameToLib(q logic.Query, lib []logic.Var) logic.Formula {
	f := q.F
	for i, v := range q.Lib {
		f = substVar(f, v, lib[i])
	}
	return f
}

func substVar(f logic.Formula, from, to logic.Var) logic.Formula {
	switch g := f.(type) {
	case logic.Atom:
		args := make([]logic.Var, len(g.Args))
		for i, v := range g.Args {
			if v == from {
				args[i] = to
			} else {
				args[i] = v
			}
		}
		return logic.Atom{Rel: g.Rel, Args: args}
	case logic.And:
		return logic.And{L: substVar(g.L, from, to), R: substVar(g.R, from, to)}
	case logic.Or:
		return logic.Or{L: substVar(g.L, from, to), R: substVar(g.R, from, to)}
	case logic.Exists:
		if g.V == from {
			return g
		}
		return logic.Exists{V: g.V, Body: substVar(g.Body, from, to)}
	default:
		return f
	}
}
