GO ?= go

.PHONY: build test race vet doccheck bench-smoke fuzz-smoke crash-smoke cluster-smoke approx-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line repeats the session-lifetime concurrency tests (counts
# racing a session's leaving the registry, eviction, stale replacement)
# and the cache type's own (hits racing evictions under the read lock).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Retire|Session|Evict' ./internal/engine ./internal/cache

vet:
	$(GO) vet ./...

# Documentation bar: every exported symbol of the public epcq package
# and internal/serve has a doc comment; every internal/* package has a
# non-trivial package comment, and none of them keeps a Deprecated: shim.
doccheck:
	$(GO) run ./scripts/doccheck

# Short micro-benchmark suite: the read after an append at pinned
# densities (Advance_TriC4_N200_P06 / _P35) and growing, the query
# classes of the repository benchmark's cold-exec workload in process
# (one by one and at the workload's mix) beside the other
# materialization benchmarks, the executor alone on plans bound before
# the timer (Enumerate_: joinCount / projectKeys, no session,
# materialization or prune), approx-hard's request mix in process
# (Approx_HardMix: one sampled K4 / K5 estimate per op, memos cold),
# cold-query's stream in process (ColdQuery_Front: parse, NewCounter and
# one count per op, allocs/op reported), +
# the engine delta guard: on an append+count mix — sparse and dense on
# the store's bit rows, and on a relation too sparse for rows, where a
# delta term walks posting lists —
# the delta path must beat forced full recounts by ≥ 20x — a
# same-machine relative bound, independent of absolute CI machine speed.
bench-smoke:
	$(GO) test -run XXX -bench 'JoinCount|FPT|UnionDedup|Advance_' -benchmem -benchtime 0.2s .
	$(GO) test -run XXX -bench 'Materialize_|ColdExec_|Enumerate_' -benchmem -benchtime 0.2s ./internal/engine
	$(GO) test -run XXX -bench 'Approx_|ColdQuery_Front' -benchmem -benchtime 0.2s ./internal/core
	EPCQ_BENCH_SMOKE=1 $(GO) test -run TestBenchSmoke -v ./internal/engine

fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzParseQuery -fuzztime 10s ./internal/parser
	$(GO) test -run XXX -fuzz FuzzParseStructure -fuzztime 10s ./internal/parser
	$(GO) test -run XXX -fuzz FuzzFingerprintInvariance -fuzztime 10s ./internal/term
	$(GO) test -run XXX -fuzz FuzzWALRecordDecode -fuzztime 10s ./internal/wal
	$(GO) test -run XXX -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/wal

# Crash-recovery fault matrix under the race detector: every-byte-prefix
# and every-bit-flip WAL recovery, kill-restart differentials (torn tail
# + dropped page cache) at both the store and serving layers, compaction
# crash points, and the shutdown writer-drain regression test.
crash-smoke:
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'TestServeRecovery|TestAppendIdempotency|TestShutdownDrains|TestHealthz|TestServerRestart|TestKillRestartLiveStream|TestCompactionUnderLoad' ./internal/serve

# Cluster suite under the race detector, for local use (CI's race job
# runs it as part of go test -race ./...): the randomized
# coordinator-vs-single-node differential over real loopback HTTP, the
# router-vs-single-node wire equivalence on errors, the
# 503-mid-shutdown scatter-gather reroute regression, dead-shard
# failover, and the consistent-hash stability property test.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster

# Statistical acceptance suite for the approximate-counting engine,
# swept across several disjoint fixed-seed matrices: unbiasedness of the
# fixed-budget estimator, (ε, δ) interval coverage against exact ground
# truth, cover-or-Converged=false on sparse-answer instances, routing
# differentials (FPT bit-identical, hard sampled, golden seeds), and
# the serve/cluster approx wire contracts under the race detector.  The
# tolerances carry a Chernoff-style failure budget, so a red matrix
# means estimator bias, not bad luck.
approx-smoke:
	for base in 1 10001 20002 30003; do \
		EPCQ_APPROX_SEED_BASE=$$base $(GO) test -count=1 ./internal/approx || exit 1; \
	done
	$(GO) test -race -count=1 ./internal/approx ./internal/hom
	$(GO) test -race -count=1 -run 'TestRoutingMatchesClassify|TestFPTApproxBitIdentical|TestHardRoutingSamples|TestApproxHardGolden|TestWithRouteBoundsReroutes|TestClassificationMemoizedPerFingerprint' ./internal/core
	$(GO) test -race -count=1 -run 'Approx|TestHardExactAdmission|TestCountModeValidation' ./internal/serve ./internal/cluster
