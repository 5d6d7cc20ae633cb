package ie

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/term"
)

// Term is a signed pp-formula in an inclusion–exclusion expansion.
type Term struct {
	Formula pp.PP
	Coeff   *big.Int
	// FP is the canonical counting-class fingerprint of the formula
	// (term.Fingerprint).  Downstream layers key plan and count caches on
	// it.
	FP string
	// Subset is the subset J of the original disjuncts (indices) whose
	// conjunction the formula is: set on RawTerms' terms only, nil on
	// merged ones, whose formula stands for a whole counting class.
	Subset []int
}

// MaxDisjuncts caps the 2^s inclusion–exclusion expansion.
const MaxDisjuncts = 20

// expand emits, in increasing order of the subset's bit mask, one term per
// non-empty J ⊆ [s]: the formula build returns for J with coefficient
// (-1)^{|J|+1} (equation (1) in Section 5.3).  build reads J, ascending,
// from one buffer that the next mask overwrites.
func expand(s int, build func(mask int, subset []int) (pp.PP, error), emit func(Term) error) error {
	if s > MaxDisjuncts {
		return fmt.Errorf("ie: %d disjuncts exceed the 2^s expansion cap of %d", s, MaxDisjuncts)
	}
	subset := make([]int, 0, s)
	for mask := 1; mask < 1<<s; mask++ {
		subset = subset[:0]
		for j := 0; j < s; j++ {
			if mask&(1<<j) != 0 {
				subset = append(subset, j)
			}
		}
		f, err := build(mask, subset)
		if err != nil {
			return err
		}
		coeff := big.NewInt(1)
		if len(subset)%2 == 0 {
			coeff.SetInt64(-1)
		}
		if err := emit(Term{Formula: f, Coeff: coeff}); err != nil {
			return err
		}
	}
	return nil
}

// RawTerms returns the unmerged inclusion–exclusion expansion: for every
// non-empty J ⊆ [s], the conjunction ⋀_{j∈J} φ_j with coefficient
// (-1)^{|J|+1}.
func RawTerms(disjuncts []pp.PP) ([]Term, error) {
	var out []Term
	var subset []int
	err := expand(len(disjuncts), func(_ int, j []int) (pp.PP, error) {
		subset = append([]int(nil), j...)
		parts := make([]pp.PP, len(subset))
		for i, j := range subset {
			parts[i] = disjuncts[j]
		}
		return pp.Conjoin(parts...)
	}, func(t Term) error {
		t.Subset = subset
		out = append(out, t)
		return nil
	})
	return out, err
}

// Merge combines counting-equivalent terms, summing coefficients, and
// drops terms whose coefficient cancels to zero — the simplification step
// of Proposition 5.16.  Each class is represented by the core of its
// first-seen formula (logically equivalent, hence count-preserving).
//
// Merge is MergeInto against a throwaway pool; callers that want the
// interning statistics (or to share the pool downstream) use MergeInto.
func Merge(terms []Term) ([]Term, error) {
	return MergeInto(term.NewPool(), terms)
}

// MergeInto interns every term into the pool (which must be fresh) and
// returns the cancelled expansion: one Term per counting class with a
// non-zero merged coefficient, in first-seen order, carrying the class's
// canonical fingerprint.
//
// The pool's interning (term.Pool) realizes the classification this
// package needs: counting equivalence is renaming equivalence
// (Theorem 5.4), and renaming-equivalent formulas have cores isomorphic
// up to a renaming of the liberal variables (Theorem 2.3 after
// identifying the liberal sets), so the canonical fingerprint of the
// core is a complete class invariant — equivalent terms merge even when
// their raw universes differ by redundant quantified parts, and the
// output is pairwise non-counting-equivalent, the contract Lemma 5.18's
// recursive peeling depends on.  A term whose labeling overruns its
// budget is refused with pp.ErrLabelingBudget.
func MergeInto(pool *term.Pool, terms []Term) ([]Term, error) {
	if err := requireFresh(pool); err != nil {
		return nil, err
	}
	for _, t := range terms {
		if err := intern(pool, t); err != nil {
			return nil, err
		}
	}
	return liveTerms(pool), nil
}

func requireFresh(pool *term.Pool) error {
	if pool.Stats().Raw != 0 {
		return fmt.Errorf("ie: merging requires a fresh pool")
	}
	return nil
}

func intern(pool *term.Pool, t Term) error {
	_, err := pool.Add(t.Formula, t.Coeff)
	return err
}

// liveTerms returns one Term per counting class of the pool with a
// non-zero merged coefficient, in first-seen order.
func liveTerms(pool *term.Pool) []Term {
	var out []Term
	for _, e := range pool.Terms() {
		if e.Coeff.Sign() == 0 {
			continue
		}
		out = append(out, Term{
			Formula: e.Formula,
			Coeff:   new(big.Int).Set(e.Coeff),
			FP:      e.FP,
		})
	}
	return out
}

// PhiStar computes φ* for an all-free disjunction: the cancelled
// inclusion–exclusion expansion of Proposition 5.16.
func PhiStar(disjuncts []pp.PP) ([]Term, error) {
	return PhiStarInto(term.NewPool(), disjuncts)
}

// PhiStarInto is PhiStar interning through the supplied (fresh) pool, so
// the caller keeps the per-class statistics and fingerprints.
//
// It interns the same 2^s-1 terms as MergeInto(pool, RawTerms(disjuncts))
// in the same order, but builds each φ_J as
// core(φ_{J∖{max J}}) ∧ core(φ_{max J}) — logically equivalent to
// ⋀_{j∈J} φ_j, and a much smaller input to the core computation than the
// conjunction of the raw disjuncts.  Masks ascend, so both cores are
// ready when J's turn comes: core(φ_{max J}) is the singleton's term.
func PhiStarInto(pool *term.Pool, disjuncts []pp.PP) ([]Term, error) {
	if err := requireFresh(pool); err != nil {
		return nil, err
	}
	var cored []pp.PP // core(φ_J) by J's bit mask
	err := expand(len(disjuncts), func(mask int, _ []int) (pp.PP, error) {
		if cored == nil {
			cored = make([]pp.PP, 1<<len(disjuncts))
		}
		hi := bits.Len(uint(mask)) - 1
		f := disjuncts[hi]
		if rest := mask &^ (1 << hi); rest != 0 {
			var err error
			if f, err = pp.Conjoin(cored[rest], cored[1<<hi]); err != nil {
				return pp.PP{}, err
			}
		}
		cored[mask] = f.Core()
		return cored[mask], nil
	}, func(t Term) error { return intern(pool, t) })
	if err != nil {
		return nil, err
	}
	return liveTerms(pool), nil
}

// CountFunc counts a pp-formula on a structure; the caller chooses the
// engine (decoupling ie from the counting package).
type CountFunc func(pp.PP, *structure.Structure) (*big.Int, error)

// Count evaluates Σ_i c_i·|φ*_i(B)| with the supplied pp counter.
func Count(terms []Term, b *structure.Structure, cnt CountFunc) (*big.Int, error) {
	total := new(big.Int)
	for _, t := range terms {
		v, err := cnt(t.Formula, b)
		if err != nil {
			return nil, err
		}
		total.Add(total, new(big.Int).Mul(t.Coeff, v))
	}
	return total, nil
}
