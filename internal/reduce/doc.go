// Package reduce implements the two counting slice reductions between
// count[Φ] and count[Φ⁺] of the equivalence theorem (Theorem 3.1;
// Section 5.3, Section 5.4, Appendix A) over eptrans.Compiled, with the
// distinguishing-structure lemmas (5.12/5.13), the Vandermonde solve of
// internal/lin and the class peeling of Lemma 5.18 built constructively.
// They are proof devices the counting pipeline never runs: only the
// public epcq package and tests import this one.
package reduce
