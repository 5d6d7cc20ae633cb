// Package term implements canonical pp-term interning: the shared
// front-end of the counting pipeline that collapses the inclusion–
// exclusion term explosion at compile time.
//
// By the counting equivalences of Section 5 (Theorem 5.4, with
// Theorem 2.3 after identifying the liberal sets), two pp-terms have
// identical counts on every structure exactly when their cores are
// isomorphic under a map carrying liberal variables onto liberal
// variables.  A canonical labeling of the (tiny, parameter-bounded) core
// therefore yields a complete fingerprint of a term's counting class:
// terms with equal fingerprints are interchangeable everywhere in the
// pipeline — they can share one merged inclusion–exclusion coefficient,
// one compiled engine plan, and one per-structure count.
//
// The Pool interns terms in two stages:
//
//  1. raw stage — the canonical key of the un-cored formula.  Raw
//     inclusion–exclusion terms that are outright isomorphic (the same
//     conjunction up to renaming, e.g. φ_J for symmetric subsets J)
//     merge here without paying for a core computation at all.  A
//     formula already marked cored (ie.PhiStarInto hands those in)
//     skips this stage: its raw key is its cored key;
//  2. cored stage — the canonical key of the core, the complete
//     counting-class fingerprint.  Terms whose cores coincide merge
//     their coefficients; entries whose merged coefficient cancels to
//     zero are dropped before any plan is built.
//
// Canonical labeling prunes its search by the automorphisms it finds,
// so every term the pipeline has met labels well inside its step
// budget.  A term that overruns it has no fingerprint, and Add refuses
// it with pp.ErrLabelingBudget.
package term
