// Package eptrans is the front end of the equivalence theorem (Theorem
// 3.1): it translates an ep-formula φ into the finite set φ⁺ of prenex
// pp-formulas — normalization, inclusion–exclusion through the canonical
// term pool, and the sentence-entailment filter of Section 5.4.  The two
// counting slice reductions between count[Φ] and count[Φ⁺] live in
// internal/reduce, outside the serving pipeline.
package eptrans
