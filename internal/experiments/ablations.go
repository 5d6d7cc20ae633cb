package experiments

import (
	"fmt"
	"math/big"

	"repro/internal/count"
	"repro/internal/eptrans"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/tw"
	"repro/internal/workload"
)

// RunA2 measures the cancellation rate of counting-equivalence merging:
// raw 2^s−1 terms vs surviving φ* terms.  Cancellation comes from
// symmetry among disjuncts (Example 4.2's rotated paths are the paradigm),
// so the workload mixes symmetric unions (rotated copies of one pattern
// over a shared liberal set) with fully random unions as a control.
func RunA2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: φ* cancellation rate on symmetric vs random unions",
		Columns: []string{"union", "s", "raw terms", "φ* terms", "saved"},
		OK:      true,
	}
	sig := edgeSig()
	add := func(name string, free []pp.PP) error {
		raw, err := ie.RawTerms(free)
		if err != nil {
			return err
		}
		merged, err := ie.Merge(raw)
		if err != nil {
			return err
		}
		if len(merged) > len(raw) {
			t.OK = false
		}
		saved := fmt.Sprintf("%.0f%%", 100*(1-float64(len(merged))/float64(len(raw))))
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(len(free)),
			fmt.Sprint(len(raw)), fmt.Sprint(len(merged)), saved,
		})
		return nil
	}
	// Symmetric unions: all rotations of a 2-path over {v0..v_{k-1}},
	// generalizing Example 4.2 (which is k = 4).
	rotated := func(k int) ([]pp.PP, error) {
		lib := make([]logic.Var, k)
		for i := range lib {
			lib[i] = logic.Var(fmt.Sprintf("v%d", i))
		}
		var out []pp.PP
		for r := 0; r < k-1; r++ {
			d := logic.Disjunct{Atoms: []logic.Atom{
				{Rel: "E", Args: []logic.Var{lib[r], lib[(r+1)%k]}},
				{Rel: "E", Args: []logic.Var{lib[(r+1)%k], lib[(r+2)%k]}},
			}}
			p, err := pp.FromDisjunct(sig, lib, d)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	}
	ks := []int{4, 5}
	if cfg.Quick {
		ks = []int{4}
	}
	for _, k := range ks {
		free, err := rotated(k)
		if err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("rotated-2paths(k=%d)", k), free); err != nil {
			return nil, err
		}
	}
	// Random unions as control: little to no cancellation expected.
	n := 4
	if cfg.Quick {
		n = 2
	}
	for seed := int64(0); seed < int64(n); seed++ {
		q := workload.RandomEPQuery(sig, 3, 3, 2, 2, seed)
		var disjuncts []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				return nil, err
			}
			disjuncts = append(disjuncts, p)
		}
		free := onlyFree(disjuncts)
		if len(free) == 0 {
			continue
		}
		if err := add(fmt.Sprintf("random#%d", seed), free); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"rotated-2paths(k=4) is exactly Example 4.2: 7 raw terms → 2 (71% saved)")
	return t, nil
}

func onlyFree(ds []pp.PP) []pp.PP {
	var out []pp.PP
	for _, d := range ds {
		if d.IsFree() {
			out = append(out, d)
		}
	}
	return out
}

// RunA3 measures how much UCQ minimization (= normalization) shrinks
// redundant unions before the exponential φ* expansion.
func RunA3(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: normalization (minimization) before φ* expansion",
		Columns: []string{"query", "disjuncts raw", "after min", "φ* w/o min", "φ* with min", "equal counts"},
		OK:      true,
	}
	sig := edgeSig()
	// Engineered redundant unions: ψ ∨ (ψ ∧ extra) ∨ renamed-ψ.
	queries := []string{
		"q(x,y) := E(x,y) | E(x,y) & E(y,x) | E(x,y) & E(x,y)",
		"q(x,y) := E(x,y) | E(x,y) & E(y,y) | E(x,y) & E(x,x)",
		"q(s,t) := (exists u. E(s,u) & E(u,t)) | (exists u, v. E(s,u) & E(u,v) & E(v,t) & E(s,t)) | E(s,t)",
	}
	for _, src := range queries {
		q := parser.MustQuery(src)
		var raw []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				return nil, err
			}
			raw = append(raw, p)
		}
		minimized, err := eptrans.Minimize(raw)
		if err != nil {
			return nil, err
		}
		starRaw, err := ie.PhiStar(onlyFree(raw))
		if err != nil {
			return nil, err
		}
		starMin, err := ie.PhiStar(onlyFree(minimized))
		if err != nil {
			return nil, err
		}
		// Counting must be preserved.
		b := workload.RandomStructure(sig, 4, 0.4, 5)
		vRaw, err := ie.Count(starRaw, b, projCounter)
		if err != nil {
			return nil, err
		}
		vMin, err := ie.Count(starMin, b, projCounter)
		if err != nil {
			return nil, err
		}
		equal := vRaw.Cmp(vMin) == 0
		t.OK = t.OK && equal && len(minimized) <= len(raw)
		t.Rows = append(t.Rows, []string{
			shorten(src, 34), fmt.Sprint(len(raw)), fmt.Sprint(len(minimized)),
			fmt.Sprint(len(starRaw)), fmt.Sprint(len(starMin)), yes(equal),
		})
	}
	t.Notes = append(t.Notes,
		"minimization is valid because the dropped disjuncts entail survivors (answer sets are unions)")
	return t, nil
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// RunA4 compares the FPT engine with and without the core step on queries
// with redundant quantified parts, where coring shrinks the instance.
func RunA4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation: FPT engine with vs without core computation",
		Columns: []string{"query", "n", "|core|/|A|", "t_core", "t_nocore", "equal"},
		OK:      true,
	}
	n := 40
	if cfg.Quick {
		n = 16
	}
	// Queries with redundant quantified branches that the core collapses.
	queries := []string{
		"q(x) := exists u, v, w. E(x,u) & E(x,v) & E(x,w)",
		"q(s,t) := exists u, a, b. E(s,u) & E(u,t) & E(s,a) & E(a,b)",
		"q(x) := exists u, v. E(x,u) & E(u,v) & E(x,v) & E(x,x)",
	}
	g := workload.ER(n, 6.0/float64(n), 7)
	b := workload.GraphStructure(g)
	for _, src := range queries {
		q := parser.MustQuery(src)
		p, err := singlePP(q)
		if err != nil {
			return nil, err
		}
		cored := p.Core()
		var vCore, vNo *big.Int
		dCore, err := timed(func() error {
			var e error
			vCore, e = count.PP(p, b, count.EngineFPT)
			return e
		})
		if err != nil {
			return nil, err
		}
		dNo, err := timed(func() error {
			var e error
			vNo, e = count.PP(p, b, count.EngineFPTNoCore)
			return e
		})
		if err != nil {
			return nil, err
		}
		equal := vCore.Cmp(vNo) == 0
		t.OK = t.OK && equal
		t.Rows = append(t.Rows, []string{
			shorten(src, 40), fmt.Sprint(n),
			fmt.Sprintf("%d/%d", cored.A.Size(), p.A.Size()),
			fmtDur(dCore), fmtDur(dNo), yes(equal),
		})
	}
	return t, nil
}

// RunA5 compares exact branch-and-bound treewidth with the min-fill
// heuristic on random graphs (the classifier uses exact widths for query
// graphs and falls back to the heuristic beyond the size cap).
func RunA5(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A5",
		Title:   "Ablation: exact vs min-fill heuristic treewidth",
		Columns: []string{"seed", "n", "edges", "exact w", "t_exact", "heur w", "t_heur", "gap"},
		OK:      true,
	}
	n := 14
	rounds := 6
	if cfg.Quick {
		n, rounds = 10, 3
	}
	for seed := int64(0); seed < int64(rounds); seed++ {
		g := workload.ER(n, 0.3, seed)
		var wExact int
		dExact, err := timed(func() error {
			wExact, _, _ = tw.Treewidth(g)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var wHeur int
		dHeur, err := timed(func() error {
			wHeur = tw.HeuristicDecomposition(g).Width()
			return nil
		})
		if err != nil {
			return nil, err
		}
		if wHeur < wExact {
			t.OK = false // heuristic must be an upper bound
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(seed), fmt.Sprint(n), fmt.Sprint(g.NumEdges()),
			fmt.Sprint(wExact), fmtDur(dExact),
			fmt.Sprint(wHeur), fmtDur(dHeur),
			fmt.Sprint(wHeur - wExact),
		})
	}
	return t, nil
}
