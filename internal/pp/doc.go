// Package pp implements prenex primitive positive formulas in the
// structure-pair view of Chandra–Merlin (Section 2.1 "pp-formulas"): a
// pp-formula φ(S) is a pair (A, S) of a finite structure A whose universe
// is the liberal variables S plus the quantified variables, and whose
// tuples are φ's atoms.  The package provides the syntactic and algebraic
// toolkit of the paper: components, cores, ∃-components, contract graphs,
// conjunction, Chandra–Merlin entailment, canonical keys, and the
// counting and semi-counting equivalences of Section 5, both decided by
// canonical keys of cores.
// ShapeOf derives, once per compiled plan and by word operations on bit
// rows, what Theorems 3.2 and 2.11 read of a core; the engine and
// classify both read that one Shape.
// Entailment and cores are homomorphism questions between query-sized
// structures and go straight to internal/hom's solver: the liberal
// variables are pinned rather than marked by extra relations, and a core
// is found by retraction on one solver, so the only structure Core ever
// builds is the core itself.
package pp
