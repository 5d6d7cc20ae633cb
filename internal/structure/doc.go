// Package structure implements finite relational structures over purely
// relational signatures, together with the structure algebra the paper
// relies on: direct products, powers, disjoint unions, the one-element
// all-loop structure I_τ, and B+kI padding.  Beside the Signature it
// holds Atoms, the flat, immutable body of a pp-formula: variable names
// and, per relation, one row-major argument array.  Cores, entailment
// and conjunctions run on Atoms; the indexed Structure below holds data
// (a body's Database is one).
//
// Universes are finite, non-empty sets of named elements.  Each relation
// is held in a columnar Relation store: flat []int32 columns, a
// packed-key tuple set (a Go map) for O(1) dedup/membership, and
// per-position posting lists, built from the columns by the first read
// and appended to on every insertion after it.  A posting list is the
// ascending []int32 of the ids of the rows holding one value at one
// position (RowsWith): rows are only appended, so it ascends by
// construction, and Audit (which builds the lists first) proves it.  A
// structure nobody reads them on never pays for them.  Their readers —
// the hom solver's row kernel and the engine's seeded delta walk —
// iterate them, never intersect them: joins run on the engine's session
// table indexes.  A
// binary relation dense enough for its universe (BitRowsFit) also keeps
// value-space bit rows (BitRows).  Consumers iterate allocation-free with
// ForEachTuple or access columns through Rel; there is no materialized
// [][]int view.  Element order, relation-symbol order, and tuple
// insertion order are deterministic so that all algorithms built on top
// are reproducible.
//
// Concurrency discipline: a Structure is safe for any number of
// concurrent readers, but mutation (AddElem/AddTuple/AddFact) requires
// exclusive access — long-lived services guard each structure with a
// read/write lock (see internal/serve).  Every mutation bumps Version;
// snapshot consumers (engine sessions, plan caches) key on it to
// detect staleness without rehashing, which is what makes append →
// invalidate → recount work.
package structure
