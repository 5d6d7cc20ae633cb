// Package pp implements prenex primitive positive formulas in the
// structure-pair view of Chandra–Merlin (Section 2.1 "pp-formulas"): a
// pp-formula φ(S) is a pair (A, S) of a finite structure A whose universe
// is the liberal variables S plus the quantified variables, and whose
// tuples are φ's atoms.  A is held as a structure.Atoms, the formula's
// canonical database in flat, immutable form: the variable names and,
// per relation, one row-major argument array.  A variable-free disjunct
// ("true") is the formula with an empty body.  The package provides the
// syntactic and algebraic toolkit of the paper: components, cores,
// ∃-components, contract graphs, conjunction, Chandra–Merlin entailment,
// canonical keys, and the counting and semi-counting equivalences of
// Section 5, both decided by canonical keys of cores.
//
// FromDisjunct appends atoms, Conjoin concatenates and renumbers bodies,
// and components, φ̂ and cores filter them; each keeps the variable order
// and the first-occurrence atom order of its inputs, so printed
// formulas and everything keyed on element numbers are deterministic.
// ShapeOf derives, once per compiled plan and by word operations on bit
// rows, what Theorems 3.2 and 2.11 read of a core; the engine and
// classify both read that one Shape.
// Entailment and cores are homomorphism questions between query-sized
// bodies and go straight to internal/hom's solver, a body as the target
// too: the liberal variables are pinned rather than marked by extra
// relations, and a core is found by retraction on one solver, so the
// only body Core ever builds is the core itself.
package pp
