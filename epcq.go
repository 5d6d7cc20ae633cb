// Package epcq is a library for counting answers to existential positive
// (ep) queries on finite relational structures — a faithful, executable
// reproduction of:
//
//	Hubie Chen and Stefan Mengel.
//	"Counting Answers to Existential Positive Queries: A Complexity
//	Classification."  PODS 2016 (arXiv:1601.03240).
//
// The package exposes:
//
//   - parsing and construction of ep-queries (unions of conjunctive
//     queries with designated "liberal" variables) and structures;
//   - the production counting pipeline of the paper (Theorem 3.1 front-end
//   - the Theorem 2.11 FPT counting algorithm), executed by the layered
//     Term pool→Plan→Executor→Session engine of internal/term +
//     internal/engine: inclusion–exclusion terms intern by canonical
//     core fingerprint (counting-equivalent terms merge coefficients and
//     share compiled plans; cancelled classes never compile), queries
//     compile once to engine plans, structures materialize constraint
//     tables, bind per-node constraint orders with prefix hash indexes,
//     and memoize one count per unique term once per session, and the
//     join-count DP runs index probes on packed uint64 keys with an
//     int64 fast path, on the caller's goroutine;
//   - repeated counting (Counter.Count) and batched counting over many
//     structures (Counter.CountBatch / epcq.CountBatch), the one place
//     the library fans out: Counter.WithWorkers structures at a time,
//     GOMAXPROCS by default;
//   - the decidable equivalence notions of Section 5 (counting
//     equivalence, semi-counting equivalence, logical equivalence);
//   - the φ⁺ translation of the equivalence theorem and both counting
//     slice reductions;
//   - the trichotomy classifier of Theorem 3.2.
//
// Quick start:
//
//	q, _ := epcq.ParseQuery("triangles(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
//	b, _ := epcq.ParseStructure("E(a,b). E(b,c). E(c,a).", nil)
//	c, _ := epcq.NewCounter(q, b.Signature())
//	n, _ := c.Count(b)                                  // *big.Int
//	ns, _ := c.CountBatch([]*epcq.Structure{b, b2, b3}) // GOMAXPROCS at a time
package epcq

import (
	"fmt"
	"math/big"

	"repro/internal/approx"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Re-exported core types.  (Aliases keep one canonical implementation in
// the internal packages while giving users stable names.)
type (
	// Query is an ep-formula with an ordered list of liberal variables;
	// counting is always over the liberal variables (Section 2.1).
	Query = logic.Query
	// Var is a query variable name.
	Var = logic.Var
	// Formula is an ep-formula node (Atom / And / Or / Exists / Truth).
	Formula = logic.Formula
	// Structure is a finite relational structure.
	Structure = structure.Structure
	// Signature is a finite relational vocabulary.
	Signature = structure.Signature
	// RelSym is a relation symbol (name + arity).
	RelSym = structure.RelSym
	// PPFormula is a prenex primitive positive formula in the pair view
	// (A, S) of Chandra–Merlin.
	PPFormula = pp.PP
	// Counter is a compiled ep-query supporting repeated counting,
	// classification, and the oracle reductions.
	Counter = core.Counter
	// Compiled is the Theorem 3.1 front-end output: normalized disjuncts,
	// φ*af, φ⁻af and φ⁺.
	Compiled = eptrans.Compiled
	// Verdict is a trichotomy classification result (Theorem 3.2).
	Verdict = classify.Verdict
	// ApproxParams configures an approximate count: the (ε, δ) target,
	// the per-component sample caps, and the RNG seed.
	ApproxParams = approx.Params
	// ApproxResult is a routed approximate count: the estimate with its
	// error bound, confidence, trichotomy case and budget telemetry.
	ApproxResult = core.ApproxResult
	// HardExactError is the typed admission-control rejection returned
	// when exact execution of a hard-classified query is refused.
	HardExactError = core.HardExactError
)

// Trichotomy cases (Theorem 3.2).
const (
	CaseFPT         = classify.CaseFPT
	CaseClique      = classify.CaseClique
	CaseSharpClique = classify.CaseSharpClique
)

// ParseQuery parses the concrete query syntax, e.g.
//
//	phi(w,x,y,z) := E(x,y) & (E(w,x) | exists u. E(y,u) & E(u,u))
//
// A bare formula is also accepted; its liberal variables are then its free
// variables in lexicographic order.
func ParseQuery(src string) (Query, error) { return parser.ParseQuery(src) }

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(src string) Query { return parser.MustQuery(src) }

// ParseStructure parses a fact file such as
//
//	universe a, b, c.
//	E(a,b). E(b,c).
//
// If sig is nil, relation arities are inferred from the facts.
func ParseStructure(src string, sig *Signature) (*Structure, error) {
	return parser.ParseStructure(src, sig)
}

// MustParseStructure is ParseStructure panicking on error.
func MustParseStructure(src string, sig *Signature) *Structure {
	return parser.MustStructure(src, sig)
}

// NewSignature builds a signature from relation symbols.
func NewSignature(rels ...RelSym) (*Signature, error) {
	return structure.NewSignature(rels...)
}

// NewStructure returns an empty structure over sig (add facts with
// AddFact).
func NewStructure(sig *Signature) *Structure { return structure.New(sig) }

// NewCounter compiles a query for repeated counting with the Theorem 2.11
// engine.  A nil signature is inferred from the query.
func NewCounter(q Query, sig *Signature) (*Counter, error) {
	return core.NewCounter(q, sig, engine.FPT)
}

// Count is the one-shot convenience: compile and count in one call.
// For repeated counting over the same query, use NewCounter.
func Count(q Query, b *Structure) (*big.Int, error) {
	c, err := NewCounter(q, b.Signature())
	if err != nil {
		return nil, err
	}
	return c.Count(b)
}

// CountApprox is the one-shot approximate convenience: compile, route
// each term through the Theorem 3.2 trichotomy, and count — FPT terms
// exactly, hard terms with the importance-sampling estimator at the
// (ε, δ) target (zero values select the defaults 0.1, 0.05).  The same
// ApproxParams.Seed always yields the same estimate.  For repeated
// counting, hold a Counter and call its CountApprox method.
func CountApprox(q Query, b *Structure, prm ApproxParams) (ApproxResult, error) {
	c, err := NewCounter(q, b.Signature())
	if err != nil {
		return ApproxResult{}, err
	}
	return c.CountApprox(b, prm)
}

// CountBatch compiles the query once and counts its answers on every
// structure of the batch, GOMAXPROCS structures at a time (each count on
// one goroutine).  Result i corresponds to bs[i].
// For repeated batches over the same query, hold a Counter and call its
// CountBatch method.
func CountBatch(q Query, bs []*Structure) ([]*big.Int, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	c, err := NewCounter(q, bs[0].Signature())
	if err != nil {
		return nil, err
	}
	return c.CountBatch(bs)
}

// Answer is one satisfying assignment of the liberal variables, with
// values given as element names aligned with the query head.
type Answer = core.Answer

// Answers collects up to limit answers of the query on b (limit ≤ 0 means
// all).  For streaming or early termination use Counter.Answers.
func Answers(q Query, b *Structure, limit int) ([]Answer, error) {
	c, err := NewCounter(q, b.Signature())
	if err != nil {
		return nil, err
	}
	var out []Answer
	_, err = c.Answers(b, limit, func(a Answer) bool {
		out = append(out, append(Answer(nil), a...))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CountHomomorphisms counts all homomorphisms A → B via the join-count
// dynamic program — the #HOM problem of Dalmau–Jonsson that the paper's
// trichotomy generalizes; FPT when A has bounded treewidth.  It counts
// the quantifier-free pp-formula whose liberal variables are all of A's
// elements, so the core is A itself, not a smaller retract.
func CountHomomorphisms(a, b *Structure) (*big.Int, error) {
	all := make([]int, a.Size())
	for i := range all {
		all[i] = i
	}
	p, err := pp.New(a, all)
	if err != nil {
		return nil, err
	}
	return engine.CountOnce(p, b)
}

// InferSignature derives the signature used by a query's atoms.
func InferSignature(q Query) (*Signature, error) {
	return eptrans.InferStructSignature(q)
}

// Compile runs the Theorem 3.1 front-end: normalization, φ*af with
// counting-equivalence cancellation, sentence-entailment filtering, φ⁺.
func Compile(q Query, sig *Signature) (*Compiled, error) {
	if sig == nil {
		var err error
		sig, err = eptrans.InferStructSignature(q)
		if err != nil {
			return nil, err
		}
	}
	return eptrans.Compile(q, sig)
}

// asSinglePP converts a pp-query (one disjunct) to the pair view.
func asSinglePP(q Query, sig *Signature) (PPFormula, error) {
	if sig == nil {
		var err error
		sig, err = eptrans.InferStructSignature(q)
		if err != nil {
			return PPFormula{}, err
		}
	}
	ds := q.Disjuncts()
	if len(ds) != 1 {
		return PPFormula{}, fmt.Errorf("epcq: query %v is not primitive positive (%d disjuncts)", q.Name, len(ds))
	}
	return pp.FromDisjunct(sig, q.Lib, ds[0])
}

// ToPP converts a primitive positive query (no disjunction) into the
// structure-pair view.
func ToPP(q Query, sig *Signature) (PPFormula, error) { return asSinglePP(q, sig) }

// CountingEquivalent decides whether two pp-queries have the same number
// of answers on every finite structure (Theorem 5.4: equivalent to
// renaming equivalence, hence decidable).  Both queries must be primitive
// positive and share a signature; pass nil to infer a joint signature.
func CountingEquivalent(q1, q2 Query, sig *Signature) (bool, error) {
	var err error
	if sig == nil {
		if sig, err = jointSignature(q1, q2); err != nil {
			return false, err
		}
	}
	p1, err := asSinglePP(q1, sig)
	if err != nil {
		return false, err
	}
	p2, err := asSinglePP(q2, sig)
	if err != nil {
		return false, err
	}
	return pp.CountingEquivalent(p1, p2)
}

// SemiCountingEquivalent decides Definition 5.6 via Theorem 5.9 (counting
// equivalence of the φ̂'s).
func SemiCountingEquivalent(q1, q2 Query, sig *Signature) (bool, error) {
	var err error
	if sig == nil {
		if sig, err = jointSignature(q1, q2); err != nil {
			return false, err
		}
	}
	p1, err := asSinglePP(q1, sig)
	if err != nil {
		return false, err
	}
	p2, err := asSinglePP(q2, sig)
	if err != nil {
		return false, err
	}
	return pp.SemiCountingEquivalent(p1, p2)
}

// LogicallyEquivalent decides logical equivalence of two pp-queries with
// identical liberal variables (Chandra–Merlin, Theorem 2.3).
func LogicallyEquivalent(q1, q2 Query, sig *Signature) (bool, error) {
	var err error
	if sig == nil {
		if sig, err = jointSignature(q1, q2); err != nil {
			return false, err
		}
	}
	p1, err := asSinglePP(q1, sig)
	if err != nil {
		return false, err
	}
	p2, err := asSinglePP(q2, sig)
	if err != nil {
		return false, err
	}
	return pp.LogicallyEquivalent(p1, p2)
}

func jointSignature(qs ...Query) (*Signature, error) {
	arities := map[string]int{}
	for _, q := range qs {
		m, err := logic.InferSignature(q.F)
		if err != nil {
			return nil, err
		}
		for name, ar := range m {
			if prev, ok := arities[name]; ok && prev != ar {
				return nil, fmt.Errorf("epcq: relation %s used with arities %d and %d", name, prev, ar)
			}
			arities[name] = ar
		}
	}
	rels := make([]RelSym, 0, len(arities))
	for name, ar := range arities {
		rels = append(rels, RelSym{Name: name, Arity: ar})
	}
	return structure.NewSignature(rels...)
}

// Classify compiles the query and classifies its φ⁺ against the width
// bounds (Theorem 3.2): CaseFPT if core and contract treewidths stay
// within (wCore, wContract), CaseClique if only the contract width does,
// CaseSharpClique otherwise.
func Classify(q Query, sig *Signature, wCore, wContract int) (Verdict, error) {
	if sig == nil {
		var err error
		sig, err = eptrans.InferStructSignature(q)
		if err != nil {
			return Verdict{}, err
		}
	}
	v, _, err := classify.ClassifyEP(q, sig, wCore, wContract)
	return v, err
}

// AnalyzeQueryFamily measures core/contract treewidth growth of a
// parameterized query family and reports the trichotomy case the trends
// imply.
func AnalyzeQueryFamily(gen func(k int) Query, sig *Signature, ks []int) (classify.FamilyVerdict, error) {
	return classify.AnalyzeFamily(gen, sig, ks)
}
