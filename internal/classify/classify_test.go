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

func TestAnalyzeFamilyTrends(t *testing.T) {
	ks := []int{2, 3, 4, 5}
	// Path family: both widths bounded → case 1.
	fv, err := AnalyzeFamily(func(k int) logic.Query { return workload.PathQuery(k) }, edgeSig(), ks)
	if err != nil {
		t.Fatal(err)
	}
	if fv.ImpliedCase != CaseFPT {
		t.Fatalf("path family case = %v, want FPT", fv.ImpliedCase)
	}
	// Clique sentence family: core grows, contract bounded → case 2.
	fv, err = AnalyzeFamily(func(k int) logic.Query { return workload.CliqueSentence(k) }, edgeSig(), ks)
	if err != nil {
		t.Fatal(err)
	}
	if fv.ImpliedCase != CaseClique {
		t.Fatalf("clique sentence family case = %v, want CaseClique", fv.ImpliedCase)
	}
	if fv.CoreTrend != TrendGrowing {
		t.Fatal("clique sentence core width must grow")
	}
	// Free clique family: contract grows → case 3.
	fv, err = AnalyzeFamily(func(k int) logic.Query { return workload.CliqueQuery(k) }, edgeSig(), ks)
	if err != nil {
		t.Fatal(err)
	}
	if fv.ImpliedCase != CaseSharpClique {
		t.Fatalf("free clique family case = %v, want CaseSharpClique", fv.ImpliedCase)
	}
	if fv.ContractTrend != TrendGrowing {
		t.Fatal("free clique contract width must grow")
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
