// Package core ties the paper's machinery into the production counting
// pipeline — the primary contribution of Chen & Mengel (PODS 2016) made
// executable.  A Counter compiles an ep-query once through the
// Theorem 3.1 front-end (normalization, inclusion–exclusion interned
// through the canonical term pool of internal/term, sentence-disjunct
// filtering) and then counts answers on any number of structures via
// the unique φ⁻af counting classes, each counted with the Theorem 2.11
// FPT algorithm (the one exact engine) through the fingerprint-keyed
// plan cache and the per-session count memo — sentence disjuncts too,
// decided by the engine's DP as zero-width predicates under the
// context.  It also exposes the trichotomy classification of the
// compiled query (Theorem 3.2) and the interning/caching telemetry
// (Stats, Explain).
//
// Counters are built for long-lived concurrent use: every count enters
// the engine through engine.CountKeyedCtx with a context — the context
// variants (CountCtx, CountBatchCtx, CountApproxCtx) thread per-request
// deadlines into the executor's cancellation polling, the plain ones
// pass context.Background() — every
// count runs on its caller's goroutine (requests are the parallelism;
// WithWorkers sets only how many structures of one CountBatch are
// counted at once, retunable while counts are in flight), and Stats
// snapshots race-free against all of it — the contract the HTTP service
// layer (internal/serve) is built on.
package core
