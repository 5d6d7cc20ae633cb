package core

import (
	"fmt"

	"repro/internal/hom"
	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Answer is one satisfying assignment of the liberal variables, with
// values given as element names aligned with the query's liberal list.
type Answer []string

// enumerateAnswers streams the answer set φ(B) of an ep-query given as
// prenex pp disjuncts over the liberal variables lib.  Answers are
// deduplicated across disjuncts (the set semantics |⋃ψ ψ(B)|) and
// delivered in no particular order; fn returning false stops early.
// limit ≤ 0 means unlimited.  Returns the number of answers delivered.
//
// If a sentence disjunct holds on b, the answer set is all of B^lib; the
// enumeration then iterates the full cross product (respect limit!).
func enumerateAnswers(lib []logic.Var, disjuncts []pp.PP, b *structure.Structure, limit int, fn func(Answer) bool) (int, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	delivered := 0
	emit := func(vals []int) bool {
		if limit > 0 && delivered >= limit {
			return false
		}
		ans := make(Answer, len(vals))
		for i, v := range vals {
			ans[i] = b.ElemName(v)
		}
		delivered++
		return fn(ans)
	}

	// Sentence disjunct that holds → full cross product.
	for _, d := range disjuncts {
		if len(d.FreeElems()) == 0 && hom.Exists(d.A, b, hom.Options{}) {
			vals := make([]int, len(lib))
			var sweep func(i int) bool
			sweep = func(i int) bool {
				if i == len(lib) {
					return emit(vals)
				}
				for e := 0; e < b.Size(); e++ {
					vals[i] = e
					if !sweep(i + 1) {
						return false
					}
				}
				return true
			}
			sweep(0)
			return delivered, nil
		}
	}

	seen := make(map[string]bool)
	for _, d := range disjuncts {
		if len(d.S) != len(lib) {
			return delivered, fmt.Errorf("core: disjunct liberal arity %d != |lib| %d", len(d.S), len(lib))
		}
		// Align the disjunct's (sorted) S with the declared lib order.
		perm, err := libPermutation(d, lib)
		if err != nil {
			return delivered, err
		}
		stop := false
		hom.ForEachExtendable(d.A, b, d.S, hom.Options{}, func(vals []int) bool {
			ordered := make([]int, len(vals))
			for i, pi := range perm {
				ordered[i] = vals[pi]
			}
			key := structure.TupleKey(ordered, nil)
			if seen[key] {
				return true
			}
			seen[key] = true
			if !emit(ordered) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			break
		}
	}
	return delivered, nil
}

// libPermutation returns, for each position i of lib, the index into the
// disjunct's S list holding that variable.
func libPermutation(d pp.PP, lib []logic.Var) ([]int, error) {
	perm := make([]int, len(lib))
	for i, v := range lib {
		found := -1
		for j, s := range d.S {
			if d.A.ElemName(s) == string(v) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("core: liberal variable %s missing from disjunct", v)
		}
		perm[i] = found
	}
	return perm, nil
}
