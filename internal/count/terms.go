package count

import (
	"fmt"
	"math/big"

	"repro/internal/engine"
	"repro/internal/ie"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/term"
)

// TermEngine maps the configured engine to the engine used for interned
// inclusion–exclusion terms: terms come out of the pool already cored,
// so the FPT family skips the redundant core step.
func TermEngine(e PPEngine) PPEngine {
	switch e {
	case EngineFPT, EngineAuto, EngineFPTNoCore:
		return EngineFPTNoCore
	default:
		return e
	}
}

// CountTerms evaluates Σ c_ψ·|ψ(B)| over an interned expansion through
// the shared counting pipeline: each term's plan is resolved through the
// fingerprint-keyed plan cache (engine.CompileKeyed) and its count
// through the session's per-fingerprint count memo, so counting-
// equivalent terms — across calls, Counters, and batches — compile and
// count exactly once per structure.  Terms are expected cored (the
// ie.Merge output); eng is mapped through TermEngine.
func CountTerms(terms []ie.Term, b *structure.Structure, eng PPEngine) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	sess := engine.SessionFor(b)
	name := TermEngine(eng)
	total := new(big.Int)
	for _, t := range terms {
		pl, _, err := engine.CompileKeyed(t.Formula, t.FP, name)
		if err != nil {
			return nil, err
		}
		v, _, err := engine.CountKeyed(pl, t.FP, sess)
		if err != nil {
			return nil, err
		}
		total.Add(total, new(big.Int).Mul(t.Coeff, v))
	}
	return total, nil
}

// EPUnionTerms counts an ep-union |⋃ψ ψ(B)| through the interned
// inclusion–exclusion pipeline: sentence disjuncts short-circuit to
// |B|^|lib| via the session's cached sentence checks, and the free
// disjuncts expand into the canonical term pool (merged coefficients,
// cancelled classes dropped) and are summed with CountTerms.  It is the
// pooled counterpart of EPUnion (which enumerates answers directly) and
// must agree with it on every input — differential-tested.  A non-nil
// pool (which must be fresh) is used for the interning so the caller
// keeps the statistics; pass nil to discard them.
func EPUnionTerms(disjuncts []pp.PP, b *structure.Structure, eng PPEngine, pool *term.Pool) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if pool == nil {
		pool = term.NewPool()
	} else if pool.Stats().Raw != 0 {
		return nil, fmt.Errorf("count: EPUnionTerms requires a fresh pool")
	}
	nLib, free, sentences := splitUnion(disjuncts)
	sess := engine.SessionFor(b)
	for _, d := range sentences {
		if sess.SentenceHolds(d.A) {
			return structure.PowerSize(b, nLib), nil
		}
	}
	star, err := ie.PhiStarInto(pool, free)
	if err != nil {
		return nil, err
	}
	return CountTerms(star, b, eng)
}
