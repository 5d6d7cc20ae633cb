package eptrans

import (
	"fmt"
	"math/big"

	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/term"
)

// Compiled is the fully-processed form of an ep-query: its normalized
// disjuncts, the all-free part, the cancelled inclusion–exclusion
// expansion φ*af, the entailment-filtered φ⁻af, and φ⁺.
type Compiled struct {
	Query logic.Query
	Sig   *structure.Signature

	// Disjuncts is the normalized (minimized) disjunct list: no disjunct
	// logically entails another, hence no disjunct entails a sentence
	// disjunct — the normalization property of Section 2.1.
	Disjuncts []pp.PP
	// Free are the free disjuncts (φaf is their disjunction), Sentences
	// the sentence disjuncts, in Disjuncts order.
	Free      []pp.PP
	Sentences []pp.PP
	// Pool is the canonical term pool the inclusion–exclusion expansion
	// was interned through: every raw term classified by canonical core
	// fingerprint with merged coefficients.  Downstream layers read its
	// statistics (raw vs unique term counts) and the per-class
	// fingerprints carried on Star/Minus.
	Pool *term.Pool
	// Star is φ*af: the cancelled inclusion–exclusion terms over Free
	// (Proposition 5.16).
	Star []ie.Term
	// Minus is φ⁻af: the Star terms that do not logically entail any
	// sentence disjunct (Section 5.4).
	Minus []ie.Term
	// Plus is φ⁺ = formulas of Minus ∪ Sentences (Theorem 3.1).
	Plus []pp.PP
}

// Compile runs the full Theorem 3.1 front-end on a query.  sig must cover
// every relation the query uses (pass InferStructSignature(q) when no
// ambient signature is at hand).
func Compile(q logic.Query, sig *structure.Signature) (*Compiled, error) {
	c := &Compiled{Query: q, Sig: sig}
	raw := q.Disjuncts()
	if len(raw) == 0 {
		return nil, fmt.Errorf("eptrans: query has no disjuncts")
	}
	pps := make([]pp.PP, 0, len(raw))
	for _, d := range raw {
		p, err := pp.FromDisjunct(sig, q.Lib, d)
		if err != nil {
			return nil, err
		}
		pps = append(pps, p)
	}
	normalized, err := Minimize(pps)
	if err != nil {
		return nil, err
	}
	c.Disjuncts = normalized
	for _, p := range normalized {
		if p.IsSentence() {
			c.Sentences = append(c.Sentences, p)
		} else {
			c.Free = append(c.Free, p)
		}
	}
	c.Pool = term.NewPool()
	c.Star, err = ie.PhiStarInto(c.Pool, c.Free)
	if err != nil {
		return nil, err
	}
	for _, t := range c.Star {
		entailsSentence := false
		for _, th := range c.Sentences {
			ok, err := pp.Entails(t.Formula, th)
			if err != nil {
				return nil, err
			}
			if ok {
				entailsSentence = true
				break
			}
		}
		if !entailsSentence {
			c.Minus = append(c.Minus, t)
		}
	}
	for _, t := range c.Minus {
		c.Plus = append(c.Plus, t.Formula)
	}
	c.Plus = append(c.Plus, c.Sentences...)
	return c, nil
}

// Minimize removes every disjunct that logically entails another disjunct
// (its answers are subsumed, so dropping it preserves the answer set).
// Among logically equivalent disjuncts the earliest survives.  The result
// is a normalized ep-formula in the sense of Section 2.1: in particular no
// surviving disjunct maps homomorphically from a sentence disjunct.
func Minimize(pps []pp.PP) ([]pp.PP, error) {
	n := len(pps)
	drop := make([]bool, n)
	for i := 0; i < n; i++ {
		if drop[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || drop[j] {
				continue
			}
			iEntailsJ, err := pp.Entails(pps[i], pps[j])
			if err != nil {
				return nil, err
			}
			if !iEntailsJ {
				continue
			}
			jEntailsI, err := pp.Entails(pps[j], pps[i])
			if err != nil {
				return nil, err
			}
			if !jEntailsI || j < i {
				drop[i] = true
				break
			}
		}
	}
	var out []pp.PP
	for i, p := range pps {
		if !drop[i] {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eptrans: minimization dropped every disjunct")
	}
	return out, nil
}

// InferStructSignature derives a structure.Signature from the query's
// atoms.
func InferStructSignature(q logic.Query) (*structure.Signature, error) {
	m, err := logic.InferSignature(q.F)
	if err != nil {
		return nil, err
	}
	rels := make([]structure.RelSym, 0, len(m))
	for name, ar := range m {
		rels = append(rels, structure.RelSym{Name: name, Arity: ar})
	}
	return structure.NewSignature(rels...)
}

// MaxCount returns |B|^|lib(φ)|: the count when a sentence disjunct holds.
func (c *Compiled) MaxCount(b *structure.Structure) *big.Int {
	return structure.PowerSize(b, len(c.Query.Lib))
}
