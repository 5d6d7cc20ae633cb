// Package experiments implements the reproduction experiment suite
// E1–E10 and the ablations A2–A5 (one Spec each, listed by All).  The
// paper is a theory paper with no measurement tables; each experiment
// operationalizes one worked example or theorem as a table of measured
// results, so that `cmd/epbench` (and the root benchmarks) can
// regenerate "the paper's numbers": who wins, by what factor, and where
// the asymptotic shape shows.  Every table self-validates (the OK column
// aggregates exact cross-checks) and renders as text or JSON.
// Service performance — throughput and latency, delta maintenance,
// durability, the cluster, the sampler on the hard side of the
// trichotomy — is the repository benchmark's job (go run ./benchmark),
// pinned and with every response verified.
package experiments
