// Package engine is the layered execution core of the counting pipeline.
// It separates three concerns that the paper's algorithms (Theorems 2.11
// and 3.1) interleave:
//
//   - the Plan IR layer: compiling a pp-formula's core once into an
//     executable Plan for the one exact executor (Auto and FPT both name
//     it; Compile refuses any other Name).  A plan is entered one way,
//     Plan.CountIn(ctx, session), and the package has two ways in:
//     CountInCtx (the plan, in a session) and CountKeyedCtx (the same
//     through the session's per-fingerprint count memo, which is where
//     delta maintenance happens).  The context is never nil; callers
//     with nothing to cancel pass context.Background(), which costs
//     nothing.  Compile caches nothing; CompileKeyed caches plans per
//     canonical counting-class fingerprint: counting-equivalent terms —
//     across inclusion–exclusion expansions, Counters, and batches —
//     share one plan.
//     An FPT plan component is a join over two kinds of constraint on
//     its liberal variables: atoms, and one predicate per ∃-component
//     ("this interface assignment extends to the quantified part").
//     Each ∃-component is itself compiled into a nested component
//     (compilePredicate) — all of its elements as variables, its atoms
//     as constraints, an extra clique on the interface so that some bag
//     holds it, the decomposition rooted there — because the tractable
//     case of Theorem 3.2 bounds the treewidth of the core as well as
//     of the contract graph, and that second bound is exactly what
//     makes the predicate a polynomial-time DP rather than a search.
//     A sentence component is the same thing on an empty interface: no
//     liberal variable and one zero-width predicate, whose table — empty,
//     or one empty row — is the verdict, so sentences are decided, shared
//     and cancelled like every other predicate.  The package derives no
//     graph and searches no treewidth: every decomposition comes from
//     the core's pp.Shape, which the plan carries (Plan.Shape), reduced
//     (tw.Reduce: bags contained in a neighbour's are contracted away);
//   - the Executor layer (exec.go, prune.go, over the word kernel
//     internal/bitvec): a semi-join pre-pruning pass that reduces each
//     constraint table against the value supports of the other
//     constraints on its variables — one bounded scanning fixpoint (at
//     most pruneMaxRounds rounds) over a table's two layouts, its rows
//     (the table's stride apart) or an alive mask over its tuples,
//     compacted once into a table of the same layout — then the
//     join-count dynamic program itself.  At plan-bind time (on every
//     count the memo does not answer) each node gets a constraint bind order
//     (smallest table first, then maximal bound-prefix overlap) and each
//     step the way it enters its table by the already-bound part of its
//     scope, so enumeration is look-ups instead of backtracking scans.
//     At run time each node is a flat program of ops, one per bind
//     depth, whose kinds — row scan, row bind, bit test, index probe,
//     tuple scan, free driver, domain fill, tail — are fixed before the
//     first binding, each carrying the child-group lookups due after it;
//     one loop with a cursor and a running weight per depth runs it,
//     with no call per binding (execStep, program, enumerate).  A
//     table's layout is fixed when it is built.  A width-2 table over a
//     universe of at least 64 elements that is dense enough for it
//     (structure.BitRowsFit, the store's and the hom solver's rule) is a
//     bit matrix over the universe (Table.rows): a plain binary atom's is
//     the store's own (Relation.BitRows, read in place, in cold counts
//     and delta runs alike), a predicate table and the prune's copies are
//     built as rows.  A step over one scans its non-empty rows, binds
//     from a row intersection or tests a bit, and where a node's last
//     binder binds one position from rows the end of the bind order is
//     one AND of rows per bound prefix, emitted 64 values a word or added
//     into flat accumulators by index (opTail).  Every
//     other table is tuples, entered by a prefix index keyed on the
//     packed bound values (tableIndex: a
//     CSR-layout open-addressing table sized once at build, its probes
//     allocation-free; the per-table cache is capped).  A run stays
//     on its caller's goroutine: requests, and the structures
//     of a batch (RunBoundedCtx), are the units of parallelism.
//     Bag keys are packed uint64 (with a spill path for wide bags),
//     counts are int64 with overflow detection before big.Int held
//     inline in open-addressing wmap accumulators, and scratch buffers
//     are pooled.  A bag position no local constraint covers is
//     enumerated from a child table's keys under the already-bound
//     prefix where one shares it (driverFor), over the domain
//     otherwise.  The same DP run in the existence semiring
//     (projectKeys) materializes the predicate tables: node tables are
//     key sets, the root bag's projection onto the interface is the
//     answer, and below the depth at which a node's output key is bound
//     the enumeration stops at the first witness (cut in enumerate);
//   - the Session layer (session.go): per-structure state — atom
//     tables materialized straight off the columnar relation
//     stores (a plain binary atom's rows are the store's, with no copy),
//     predicate tables materialized by a nested executor run
//     over views of those atom tables (one-shot: its pruned copies,
//     indexes and bind plan hang off the views and are garbage once the
//     rows are emitted) and shared under a structural key of the
//     ∃-component, and a count memo keyed on canonical term fingerprints
//     (each unique counting class executes at most once per
//     structure-version) — shared across φ⁻af terms, repeated counts,
//     and batched counting.  Memoized peeks at that memo without
//     computing (approx mode answers a memoized hard term exactly), and
//     Pool keeps per-(fingerprint, part) sync.Pools of state the engine
//     does not know — approx's warm samplers — so that state dies with
//     the version and with the session.  Every cache here — the plan
//     cache, the session registry, each session's table and count memos
//     and its pools, each table's prefix indexes — is an internal/cache
//     CLOCK cache with a
//     fixed entry cap (SessionStats and CacheStats expose the
//     process-wide ones).  Session memory —
//     table rows, index slots, prune scratch — is ordinary heap slices;
//     a session leaves (eviction, ReleaseSession, version replacement)
//     by dropping its registry entry, and the collector takes its
//     memory once the last count running on it returns.  Memo-warm serving
//     (CountKeyedCtx, Counter.CountBatchInto above) answers settled
//     fingerprints with zero heap allocations per request.
//
// A fourth concern, delta maintenance (delta.go), spans the last two
// layers: memoized counts of delta-maintainable FPT plans are
// version-stamped and *advanced* across append batches instead of
// recomputed.  When a structure's version bumps, SessionFor carries the
// stale session's settled counts into its replacement as priors; the
// next keyed count of the same fingerprint then applies the exact
// telescoped delta-join identity — one mixed join per constraint whose
// relation grew, its inputs read off the columnar store from the
// appended row range through shared variables: a binary relation's
// maintained rows (Relation.BitRows; new = old + Δ, so each after the
// pinned one takes a correction pinned to its Δ too) or posting-list
// rows cut at the snapshot (seedWalk) — and re-stamps the memo, at a
// cost proportional to the values those inputs keep, not to the
// structure.  Which plans are maintained is decided at compile time
// (fptPlan.deltaOK: every component a quantifier-free join over atoms)
// and the state a count leaves for the next advance is its per-component
// join values (*fptDeltaState), captured by the plan's one full-count
// loop (fptPlan.countIn); oversized deltas (more than deltaMinRows
// appended tuples and more than deltaMaxPct percent of the structure)
// and foreign or rewound snapshots fall back to a full recount that
// re-captures fresh state.  DeltaStats counts advances vs fallbacks;
// priors live inside sessions, so eviction frees them.
//
// Execution is cancellable: a plan's CountIn takes the context, the
// join-count DP polls it per pivot row and per emission or row tail
// (dpRun.cancelled) — in the nested predicate runs too — and the delta
// walk per fetched row, so a serving layer's per-request deadline stops
// CPU consumption within a bounded amount of work.  A cancelled keyed
// count never poisons the session memo — its entry is evicted and the
// next request recomputes — and an aborted predicate materialization
// caches no table.
//
// internal/hom's backtracking solver is not on this path, and the
// package does not import it: it is the reference the predicate tables,
// the sentence verdicts and the package's own tests (solverCount) are
// differential-tested against.
package engine
