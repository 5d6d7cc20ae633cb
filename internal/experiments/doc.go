// Package experiments implements the reproduction experiment suite
// E1–E10 and the ablations A2–A6 (one Spec each, listed by All), plus the
// system-level S2 (delta maintenance on append streams) and D1
// (durability cost by fsync policy, every row validated by close +
// recover-from-disk); end-to-end service and cluster throughput, and the
// sampler on the hard side of the trichotomy (exact vs approximate, every
// estimate checked against ground truth), are the repository benchmark's
// job (go run ./benchmark; -workload approx-hard for the latter).  The
// paper is a theory paper with no
// measurement tables; each experiment operationalizes one worked
// example or theorem as a table of measured results, so that
// `cmd/epbench` (and the root benchmarks) can regenerate "the paper's
// numbers": who wins, by what factor, and where the asymptotic shape
// shows.  Every table self-validates (the OK column aggregates exact
// cross-checks) and renders as text, CSV, or the BENCH_*.json format
// that tracks the perf trajectory across PRs.
package experiments
