// Package cliquered demonstrates the hardness directions of the
// trichotomy (Theorem 2.12 / cases 2–3 of Theorem 3.2) constructively:
// the clique decision and counting problems embed into answer counting
// for the canonical hard query families, so an answer-counting engine
// *is* a (#)Clique solver.  The package's tests check both directions
// against the native clique counters of internal/graph.
package cliquered
