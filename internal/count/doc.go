// Package count computes the number of answers |φ(B)| of pp- and
// ep-formulas on finite structures:
//
//   - PP and Homomorphisms run the FPT engine of Theorem 2.11 (core
//     computation, ∃-component predicate tables, and a join-count
//     dynamic program over a tree decomposition of the contract graph);
//   - EPDirect (direct recursive evaluation) and EPUnion (set-union
//     enumeration of the disjuncts' answers) are the references the
//     engine is differential-tested against;
//   - EnumerateAnswers lists the answers themselves.
//
// All counts are big.Int (they reach |B|^|lib φ|).
package count
