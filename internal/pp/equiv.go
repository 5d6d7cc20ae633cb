package pp

import (
	"fmt"

	"repro/internal/hom"
)

// CountingEquivalent decides whether |p(B)| = |q(B)| for every finite
// structure B.  By Theorem 5.4 this is renaming equivalence
// (Definition 5.3: surjections between the liberal sets extending to
// homomorphisms both ways), and two formulas are renaming equivalent
// exactly when their cores are isomorphic by a map carrying liberal
// variables onto liberal variables, which equality of the cores'
// canonical keys decides.  An error wrapping ErrLabelingBudget means the
// labeling gave up.
func CountingEquivalent(p, q PP) (bool, error) {
	if !p.A.Signature().Equal(q.A.Signature()) {
		return false, fmt.Errorf("pp: counting equivalence across different signatures")
	}
	if len(p.S) != len(q.S) || (p.A.Size() == 0) != (q.A.Size() == 0) {
		return false, nil
	}
	if p.A.Size() == 0 {
		return true, nil // both the empty conjunction: count 1 everywhere
	}
	kp, err := p.Core().CanonicalKey()
	if err != nil {
		return false, err
	}
	kq, err := q.Core().CanonicalKey()
	if err != nil {
		return false, err
	}
	return kp == kq, nil
}

// SemiCountingEquivalent decides Definition 5.6: |p(B)| = |q(B)| whenever
// both counts are positive.  By Theorem 5.9 this holds iff p̂ and q̂ are
// counting equivalent.  Defined for liberal formulas (the setting of the
// all-free pipeline).
func SemiCountingEquivalent(p, q PP) (bool, error) {
	ph, err := p.Hat()
	if err != nil {
		return false, err
	}
	qh, err := q.Hat()
	if err != nil {
		return false, err
	}
	return CountingEquivalent(ph, qh)
}

// HomOrderMinimal returns the index of a formula whose plain structure
// admits no homomorphism from any other formula's structure — the minimal
// element used in Proposition 5.19.  The input formulas are assumed
// pairwise non-homomorphically-equivalent (which Proposition 5.17
// guarantees for semi-counting-equivalent, pairwise non-counting-
// equivalent formulas); under that assumption a minimal element exists.
func HomOrderMinimal(ps []PP) (int, error) {
	if len(ps) == 0 {
		return -1, fmt.Errorf("pp: no formulas")
	}
	// φi < φj iff hom(Ai → Aj).  Find i receiving no hom from others.
	n := len(ps)
	for i := 0; i < n; i++ {
		minimal := true
		for j := 0; j < n && minimal; j++ {
			if j == i {
				continue
			}
			if hom.Exists(ps[j].A, ps[i].A, hom.Options{}) {
				minimal = false
			}
		}
		if minimal {
			return i, nil
		}
	}
	return -1, fmt.Errorf("pp: no hom-order minimal element (inputs not pairwise hom-inequivalent?)")
}
