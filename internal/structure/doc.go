// Package structure implements finite relational structures over purely
// relational signatures, together with the structure algebra the paper
// relies on: direct products, powers, disjoint unions, the one-element
// all-loop structure I_τ, and B+kI padding.
//
// Universes are finite, non-empty sets of named elements.  Each relation
// is held in a columnar Relation store: flat []int32 columns, a
// packed-key tuple set for O(1) dedup/membership, and per-position
// posting lists maintained incrementally on insertion.  Posting lists
// are two-level roaring-style bitmaps (Bitmap): rows chunk by row>>16
// into sorted-uint16 array containers (sparse) or 1024-word bitmap
// containers (dense, promoted at 4096 entries).  A posting list is
// appended to, iterated and unioned — the hom solver ors lists straight
// into word-aligned candidate masks (UnionIntoWords) — and never
// intersected: joins run on the engine's session table indexes.
// Consumers iterate allocation-free with ForEachTuple/ForEachWith or
// access columns through Rel; there is no materialized [][]int view.
// Element order, relation-symbol order, and tuple insertion order are
// deterministic so that all algorithms built on top are reproducible.
//
// Concurrency discipline: a Structure is safe for any number of
// concurrent readers, but mutation (AddElem/AddTuple/AddFact) requires
// exclusive access — long-lived services guard each structure with a
// read/write lock (see internal/serve).  Every mutation bumps Version;
// snapshot consumers (engine sessions, plan caches) key on it to
// detect staleness without rehashing, which is what makes append →
// invalidate → recount work.
package structure
