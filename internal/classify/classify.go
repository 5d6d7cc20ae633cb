package classify

import (
	"fmt"

	"repro/internal/eptrans"
	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Case is a trichotomy case of Theorem 3.2.
type Case int

const (
	// CaseFPT is case (1): the tractability condition holds.
	CaseFPT Case = iota + 1
	// CaseClique is case (2): only the contraction condition holds;
	// equivalent to p-Clique under counting FPT-reductions.
	CaseClique
	// CaseSharpClique is case (3): the contraction condition fails;
	// hard for p-#Clique.
	CaseSharpClique
)

func (c Case) String() string {
	switch c {
	case CaseFPT:
		return "case 1: FPT (tractability condition)"
	case CaseClique:
		return "case 2: p-Clique-interreducible (contraction condition only)"
	case CaseSharpClique:
		return "case 3: p-#Clique-hard"
	}
	return "unknown"
}

// Short returns the compact wire name of the case ("fpt", "clique",
// "sharp-clique"), used by the serving layer's response schema.
func (c Case) Short() string {
	switch c {
	case CaseFPT:
		return "fpt"
	case CaseClique:
		return "clique"
	case CaseSharpClique:
		return "sharp-clique"
	}
	return "unknown"
}

// Hard reports whether the case is one of the intractable regimes
// (cases 2/3), i.e. whether exact counting is not FPT under the
// bounds the case was computed against.
func (c Case) Hard() bool { return c == CaseClique || c == CaseSharpClique }

// Report carries the measured structural parameters of one pp-formula.
type Report struct {
	Formula pp.PP
	// Core is the cored formula (pp.PP.Core).
	Core pp.PP
	// CoreTreewidth is the treewidth of the core's graph.
	CoreTreewidth int
	// ContractTreewidth is the treewidth of contract(A,S).
	ContractTreewidth int
	// CoreExact / ContractExact report whether the widths are exact or
	// heuristic upper bounds (graphs beyond the exact-search cap).
	CoreExact     bool
	ContractExact bool
	// NumExistsComponents is the number of ∃-components of the core.
	NumExistsComponents int
	// MaxInterface is the largest ∃-component interface.
	MaxInterface int
}

// AnalyzePP measures one pp-formula.  Coring is free for formulas already
// marked cored, as the interned φ⁻af terms of the counting pipeline are.
func AnalyzePP(p pp.PP) Report { return Read(p, pp.ShapeOf(p.Core())) }

// AnalyzeCored measures a pp-formula the caller vouches is its own core,
// without looking for a retraction.
func AnalyzeCored(p pp.PP) Report { return Read(p, pp.ShapeOf(p)) }

// Read is p's Report read off sh, the shape of p's core or of a formula
// counting-equivalent to it (a shared plan's, engine.Plan.Shape): no
// treewidth search runs.
func Read(p pp.PP, sh *pp.Shape) Report {
	r := Report{
		Formula:             p,
		Core:                sh.Formula,
		CoreTreewidth:       sh.CoreWidth,
		CoreExact:           sh.CoreExact,
		ContractTreewidth:   sh.ContractWidth,
		ContractExact:       sh.ContractExact,
		NumExistsComponents: len(sh.Exists),
	}
	for _, ec := range sh.Exists {
		r.MaxInterface = max(r.MaxInterface, len(ec.Interface))
	}
	return r
}

// CaseFor evaluates the trichotomy case of the measured formula against
// the width bounds (wCore, wContract) — the per-term analogue of
// ClassifyPPSet's verdict rule.
func (r Report) CaseFor(wCore, wContract int) Case {
	return caseOf(r.ContractTreewidth <= wContract, r.CoreTreewidth <= wCore)
}

// caseOf is the trichotomy case of a contract width and a core width,
// each bounded or not.
func caseOf(contractBounded, coreBounded bool) Case {
	switch {
	case contractBounded && coreBounded:
		return CaseFPT
	case contractBounded:
		return CaseClique
	}
	return CaseSharpClique
}

// Verdict classifies a set of measured formulas against width bounds: a
// family whose members all satisfy contractTW ≤ wContract and coreTW ≤
// wCore satisfies the tractability condition with those constants.
type Verdict struct {
	Case              Case
	MaxCoreTW         int
	MaxContractTW     int
	Reports           []Report
	WCore, WContract  int
	AllWidthsExact    bool
	LimitingFormulaID int // index of a width-maximizing formula
}

func (v Verdict) String() string {
	return fmt.Sprintf("%v (max core tw %d vs bound %d, max contract tw %d vs bound %d)",
		v.Case, v.MaxCoreTW, v.WCore, v.MaxContractTW, v.WContract)
}

// ClassifyPPSet classifies a finite set of pp-formulas, given by their
// Reports, relative to the width bounds (wCore, wContract): the verdict
// is the Theorem 3.2 case of any family whose members stay within the
// measured maxima iff those maxima respect the bounds.
func ClassifyPPSet(reports []Report, wCore, wContract int) Verdict {
	v := Verdict{WCore: wCore, WContract: wContract, AllWidthsExact: true, LimitingFormulaID: -1, Reports: reports}
	for i, r := range reports {
		if r.CoreTreewidth > v.MaxCoreTW || r.ContractTreewidth > v.MaxContractTW {
			v.LimitingFormulaID = i
		}
		v.MaxCoreTW = max(v.MaxCoreTW, r.CoreTreewidth)
		v.MaxContractTW = max(v.MaxContractTW, r.ContractTreewidth)
		v.AllWidthsExact = v.AllWidthsExact && r.CoreExact && r.ContractExact
	}
	v.Case = caseOf(v.MaxContractTW <= wContract, v.MaxCoreTW <= wCore)
	return v
}

// ClassifyEP compiles an ep-query to φ⁺ (Theorem 3.1) and classifies the
// members: by the equivalence theorem the query class inherits exactly the
// complexity of its φ⁺ (Theorem 3.2's proof).
func ClassifyEP(q logic.Query, sig *structure.Signature, wCore, wContract int) (Verdict, *eptrans.Compiled, error) {
	c, err := eptrans.Compile(q, sig)
	if err != nil {
		return Verdict{}, nil, err
	}
	reports := make([]Report, len(c.Plus))
	for i, p := range c.Plus {
		reports[i] = AnalyzePP(p)
	}
	return ClassifyPPSet(reports, wCore, wContract), c, nil
}

// FamilyPoint is one sample of a parameterized family analysis.
type FamilyPoint struct {
	K          int
	CoreTW     int
	ContractTW int
}

// Trend summarizes how a width grows along a family.
type Trend int

const (
	// TrendBounded: the width is constant over the sampled tail.
	TrendBounded Trend = iota
	// TrendGrowing: the width increases along the samples.
	TrendGrowing
)

func (t Trend) String() string {
	if t == TrendBounded {
		return "bounded"
	}
	return "growing"
}

// FamilyVerdict reports the measured growth of both widths along a
// parameterized family and the trichotomy case the observed trends imply
// (assuming the trends continue, which for the built-in families is a
// theorem-level fact noted in their documentation).
type FamilyVerdict struct {
	Points        []FamilyPoint
	CoreTrend     Trend
	ContractTrend Trend
	ImpliedCase   Case
}

// AnalyzeFamily measures gen(k) for each k in ks.  gen must return the
// ep-query for parameter k; widths are taken as the maximum over the φ⁺
// members.
func AnalyzeFamily(gen func(k int) logic.Query, sig *structure.Signature, ks []int) (FamilyVerdict, error) {
	var fv FamilyVerdict
	for _, k := range ks {
		v, _, err := ClassifyEP(gen(k), sig, 0, 0)
		if err != nil {
			return FamilyVerdict{}, err
		}
		fv.Points = append(fv.Points, FamilyPoint{K: k, CoreTW: v.MaxCoreTW, ContractTW: v.MaxContractTW})
	}
	fv.CoreTrend = trendOf(fv.Points, func(p FamilyPoint) int { return p.CoreTW })
	fv.ContractTrend = trendOf(fv.Points, func(p FamilyPoint) int { return p.ContractTW })
	fv.ImpliedCase = caseOf(fv.ContractTrend == TrendBounded, fv.CoreTrend == TrendBounded)
	return fv, nil
}

func trendOf(pts []FamilyPoint, f func(FamilyPoint) int) Trend {
	if len(pts) < 2 {
		return TrendBounded
	}
	if f(pts[len(pts)-1]) > f(pts[len(pts)-2]) {
		return TrendGrowing
	}
	return TrendBounded
}

// MemoStats and Stats read zero: classify keeps no memo.  They stay only
// because benchmark/ladder.go, frozen outside benchmark PRs, reads them.
type MemoStats struct{ Analyses, Hits uint64 }

// Stats returns zero counters (see MemoStats).
func Stats() MemoStats { return MemoStats{} }
