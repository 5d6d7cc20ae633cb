package count

import (
	"math/big"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Answer vectors are deduplicated across disjuncts under the shared
// structure.TupleKey byte-string encoding.

// EPUnion counts an ep-formula by enumerating, per prenex pp disjunct, the
// extendable liberal assignments and collecting them in a set — a direct
// implementation of |φ(B)| = |⋃ψ ψ(B)| that serves as a mid-size reference
// engine for the inclusion–exclusion path.
//
// A sentence disjunct that holds on B makes every assignment of the
// liberal variables an answer, so the count is |B|^|lib| (the number of
// liberal variables is read off the free disjuncts; it is 0 only when the
// whole union is a sentence).
func EPUnion(disjuncts []pp.PP, b *structure.Structure) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	nLib := 0
	for _, d := range disjuncts {
		if len(d.S) > nLib {
			nLib = len(d.S)
		}
	}
	// The sentence check is a plain hom search on purpose: EPUnion is the
	// session-free reference the pooled pipeline is differential-tested
	// against.
	for _, d := range disjuncts {
		if d.IsSentence() && hom.Exists(d.A, b, hom.Options{}) {
			return structure.PowerSize(b, nLib), nil
		}
	}
	seen := make(map[string]bool)
	for _, d := range disjuncts {
		if d.IsSentence() {
			continue
		}
		hom.ForEachExtendable(d.A, b, d.S, hom.Options{}, func(vals []int) bool {
			seen[structure.TupleKey(vals, nil)] = true
			return true
		})
	}
	return big.NewInt(int64(len(seen))), nil
}
