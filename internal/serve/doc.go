// Package serve is the counting service layer: an HTTP/JSON front-end
// (cmd/epserved) that turns the compiled counting pipeline into a
// long-lived, concurrent service — the first surface where the
// engine's cross-request machinery (fingerprint-keyed plan sharing,
// per-structure sessions, per-fingerprint count memoization,
// version-based invalidation) pays off across clients rather than
// within one process.
//
// The pieces:
//
//   - Registry: named structures, each guarded by a read/write lock —
//     counts run concurrently under the read side, fact appends take
//     the write side, so every count observes a consistent structure
//     version and every append batch is atomic.  Appends ride the
//     columnar store's incremental posting lists (ingest cost is
//     proportional to the delta) and bump the structure version, which
//     invalidates cached engine sessions; the next count
//     re-materializes against the new version — or, for a warm
//     delta-maintainable memo, is advanced by the appended rows through
//     the engine's incremental delta path (the append response's
//     Inserted field reports the dedup-aware effective delta, and a
//     fully-duplicate batch keeps the version, leaving caches valid).
//     The registry also
//     caches compiled queries per (source text, signature);
//     counting-equivalent queries — even textually different ones from
//     different clients — share engine plans underneath through the
//     fingerprint-keyed plan cache.  And it is where a read executes:
//     Registry.read, the one function behind /count, every structure
//     of a /countBatch and a subscription's maintenance, counts a
//     compiled query against an entry whose read lock the caller holds
//     — version, sampler or exact-mode admission rule
//     (Config.HardExactLimit) and exact count, failures typed as
//     APIErrors — so every surface applies the same rules by
//     construction.
//
//   - Subscriptions (subscription.go): maintained counts.  POST
//     /subscriptions binds a query to a registered structure (compiling
//     the counter, computing nothing); the first GET
//     /subscriptions/{id} materializes the count and later reads either
//     answer from the cached (count, version) pair when the structure
//     is unchanged or re-count under the structure's read lock — an
//     exact read through Registry.read like any other, riding the
//     engine's delta path when the plan allows — and re-stamp at the
//     observed version.  A differential test pins every maintained
//     count to a sequential replay of the append history at its
//     version.
//
//   - Backend (backend.go): the operation set of the API — create,
//     list, get, append, count, countBatch, subscribe / list / read /
//     unsubscribe, stats, healthz — over the wire types of api.go, and
//     APIError, the one error that carries a wire status, raised where
//     the fault is known.
//
//   - Frontend (http.go): the HTTP surface of any Backend, and the only
//     one in the repository.  Routes is the route table (twelve rows,
//     with the request shapes `epserved -h` prints); the Frontend
//     decodes (unknown fields refused, 64 MiB cap), validates mode and
//     engine, bounds every counting request by a deadline — its
//     default, optionally lowered per request by timeout_ms — encodes
//     results and errors (status, Retry-After on 503, the trichotomy
//     case), and owns the listener (Start / Addr / Shutdown).
//
//   - Server (server.go): the local Backend, behind its own Frontend.
//     Its counting operations resolve the counter and the entries, take
//     the read locks, call Registry.read and shape the response.  A
//     count executes on its request's goroutine (a batch fans out
//     over its structures, one read each, Config.Workers at a time)
//     under
//     admission control (excess requests get 503 rather than queueing)
//     and under the structure's read lock; the request's deadline is
//     threaded as a context through the executor, so an expired
//     request stops consuming CPU at the executor's cancellation-poll
//     granularity and answers 504.  Stats surfaces the typed
//     core.Counter.Stats of every cached query plus the term-pool,
//     session-registry, and admission telemetry.  Shutdown drains
//     in-flight requests, then closes the registry.
//
//   - Client (client.go): the remote Backend — a typed client for the
//     wire API, used by the examples, the benchmark, tests, and the
//     cluster coordinator (internal/cluster), which is the third
//     Backend: a composition of Clients.
//
// Counts travel as decimal strings: answer counts are big integers and
// JSON numbers are lossy beyond 2^53.
package serve
