// Package workload generates the synthetic structures and query families
// used by the tests, examples and benchmarks: random and structured
// graphs encoded as binary structures, random relational structures,
// random pp/ep queries, and the named query families whose complexity
// the trichotomy classifies (paths: FPT; quantified cliques: case 2;
// free cliques: case 3).  All randomness is seeded and deterministic.
package workload
