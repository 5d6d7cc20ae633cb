package serve

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/parser"
	"repro/internal/structure"
	"repro/internal/wal"
)

// errClosed refuses writes against a registry that has begun shutting
// down: the write had no effect, so clients back off (503 goes out with
// Retry-After) and retry against the restarted process.
var errClosed = Errorf(http.StatusServiceUnavailable, "registry is shutting down")

// batchMemoCap bounds the per-structure idempotency memo (recent batch
// ids and their responses); older entries fall off FIFO.
const batchMemoCap = 1024

// structEntry is one registered structure plus its mutation lock.
//
// The columnar structure store is safe for any number of concurrent
// readers but mutation (AddFact/AddTuple bumping columns, posting
// lists, and the version counter) must be exclusive, so counts hold the
// read side and appends the write side.  This also makes every append
// batch atomic with respect to counting: a count executes against a
// version boundary, never half a batch, and the engine's per-structure
// sessions invalidate on the version bump the moment the write lock is
// released.
type structEntry struct {
	mu sync.RWMutex
	b  *structure.Structure
	// batches is the idempotency memo: recent append batch ids mapped to
	// the response they produced, so a retried batch (client retry after
	// a lost response, or a replayed request after recovery) is answered
	// from the memo instead of re-applied.  Guarded by mu (appends hold
	// the write side anyway); batchOrder drives FIFO eviction.
	batches    map[string]StructureInfo
	batchOrder []string
}

// rememberBatch records an append response under its batch id, evicting
// the oldest memo past batchMemoCap.  Caller holds e.mu.
func (e *structEntry) rememberBatch(id string, info StructureInfo) {
	if e.batches == nil {
		e.batches = make(map[string]StructureInfo)
	}
	if _, ok := e.batches[id]; !ok {
		e.batchOrder = append(e.batchOrder, id)
		if len(e.batchOrder) > batchMemoCap {
			delete(e.batches, e.batchOrder[0])
			e.batchOrder = e.batchOrder[1:]
		}
	}
	e.batches[id] = info
}

// info snapshots the structure's metadata under the read lock.
func (e *structEntry) info(name string) StructureInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return StructureInfo{Name: name, Size: e.b.Size(), Tuples: e.b.NumTuples(), Version: e.b.Version()}
}

// queryKey identifies a cached counter: the query source text and the
// signature it was compiled against (the same text over different
// vocabularies compiles to different counters).
type queryKey struct {
	src string
	sig string
}

// Registry holds the server's named structures and its compiled-query
// cache.  Counters are cached per (query text, signature);
// textually different but counting-equivalent queries still share
// compiled plans underneath through the engine's fingerprint-keyed plan
// cache, so the counter cache only saves front-end (parse + Theorem 3.1)
// work.
type Registry struct {
	mu      sync.RWMutex
	structs map[string]*structEntry
	queries map[queryKey]*core.Counter
	// subs holds the registered subscriptions (maintained counts; see
	// subscription.go), keyed by id; subSeq feeds id allocation.
	subs   map[string]*subEntry
	subSeq uint64

	// queryCap bounds the counter cache; reaching it wipes the cache
	// wholesale (a memo, not a store — entries rebuild on demand).
	queryCap int
	// workers is the batch fan-out width handed to every new counter
	// (0 = GOMAXPROCS).
	workers int
	// hardExactLimit is the exact-mode admission bound read applies
	// (Config.HardExactLimit, installed by New; 0 = every read admitted).
	hardExactLimit int
	// deadlines counts reads that ended on their request's deadline
	// (AdmissionStats.Deadline).
	deadlines atomic.Uint64

	// store is the optional durability store (nil = in-memory only),
	// installed once by AttachStore; compactBytes is the WAL size that
	// triggers a snapshot-then-truncate compaction (≤ 0 = never).
	// Both are guarded by mu for writes and effectively immutable after
	// AttachStore.
	store        *wal.Store
	compactBytes int64
	// closed latches when Close begins: further creates and appends are
	// refused so the append WaitGroup can drain before the store closes.
	closed bool
	// appendWG tracks in-flight append/create writers; Close waits on it
	// so a batch that was admitted is both applied and durably logged
	// before the store shuts.
	appendWG sync.WaitGroup
	// compacting serializes compactions (concurrent triggers coalesce).
	compacting atomic.Bool

	// Recovery telemetry for /stats.
	recStructs, recRecords, recSnaps int
	recTruncated                     bool
}

// NewRegistry returns an empty registry.  queryCap ≤ 0 selects the
// default counter-cache capacity; workers is the batch fan-out width of
// its counters (core.Counter.WithWorkers; 0 = GOMAXPROCS).
func NewRegistry(queryCap, workers int) *Registry {
	if queryCap <= 0 {
		queryCap = 256
	}
	return &Registry{
		structs:  make(map[string]*structEntry),
		queries:  make(map[queryKey]*core.Counter),
		subs:     make(map[string]*subEntry),
		queryCap: queryCap,
		workers:  workers,
	}
}

// CreateStructure parses and registers a named structure.  The name must
// be unused; facts may be empty only if a signature is given.
func (r *Registry) CreateStructure(name, facts string, spec []RelSpec) (StructureInfo, error) {
	if name == "" {
		return StructureInfo{}, fmt.Errorf("structure name must not be empty")
	}
	b, err := parseFacts(facts, spec)
	if err != nil {
		return StructureInfo{}, err
	}
	e := &structEntry{b: b}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return StructureInfo{}, errClosed
	}
	if _, dup := r.structs[name]; dup {
		return StructureInfo{}, Errorf(http.StatusConflict, "structure %q already exists", name)
	}
	// Log the creation before publishing it: once a client sees the 201,
	// the structure exists across restarts.  The raw facts and spec are
	// logged (not the parsed form) so replay goes through the same
	// parser and is bit-identical.
	if r.store != nil {
		if err := r.store.LogCreate(name, walSpec(spec), facts); err != nil {
			return StructureInfo{}, fmt.Errorf("durability: %w", err)
		}
	}
	r.structs[name] = e
	return StructureInfo{Name: name, Size: b.Size(), Tuples: b.NumTuples(), Version: b.Version()}, nil
}

// parseFacts parses a create request's facts over its signature spec
// (empty: relation arities are inferred from the facts).
func parseFacts(facts string, spec []RelSpec) (*structure.Structure, error) {
	var sig *structure.Signature
	if len(spec) > 0 {
		rels := make([]structure.RelSym, len(spec))
		for i, rs := range spec {
			rels[i] = structure.RelSym{Name: rs.Name, Arity: rs.Arity}
		}
		var err error
		if sig, err = structure.NewSignature(rels...); err != nil {
			return nil, err
		}
	}
	return parser.ParseStructure(facts, sig)
}

// walSpec converts the wire signature spec to the WAL's record shape.
func walSpec(spec []RelSpec) []wal.RelSpec {
	if len(spec) == 0 {
		return nil
	}
	out := make([]wal.RelSpec, len(spec))
	for i, rs := range spec {
		out[i] = wal.RelSpec{Name: rs.Name, Arity: rs.Arity}
	}
	return out
}

// entry resolves a named structure (a typed 404 when there is none).
func (r *Registry) entry(name string) (*structEntry, error) {
	r.mu.RLock()
	e := r.structs[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, Errorf(http.StatusNotFound, "unknown structure %q", name)
	}
	return e, nil
}

// AppendFacts parses facts over the structure's signature and merges
// them in under the write lock: new element names extend the universe,
// duplicate tuples are ignored.  The whole batch lands in one critical
// section, so concurrent counts see it atomically; the returned info's
// Inserted reports how many tuples the batch actually added
// (dedup-aware), and the version bumps only when that delta is
// non-empty — a fully-duplicate batch leaves cached sessions and
// memoized counts valid.  An effective append invalidates sessions via
// the version bump; the next count against a warm, delta-maintainable
// memo is then advanced by the appended rows rather than recomputed
// (the columnar store's posting lists are maintained incrementally too,
// so ingest cost is proportional to the appended facts, not to the
// structure).
func (r *Registry) AppendFacts(name, facts string) (StructureInfo, error) {
	return r.AppendFactsBatch(name, facts, "")
}

// AppendFactsBatch is AppendFacts with an optional client-supplied
// idempotency batch id.  A non-empty id makes the append safely
// retryable: a repeat of a batch id the structure has recently seen
// (including across a crash and recovery — the memo is rebuilt from the
// WAL) returns the original response without re-applying anything.
//
// With a store attached, the batch is logged — under the structure's
// write lock, before the in-memory apply, fsynced per the store's
// policy — so the log order equals the apply order and an acknowledged
// batch is as durable as the policy promises.
func (r *Registry) AppendFactsBatch(name, facts, batchID string) (StructureInfo, error) {
	info, err := r.appendBatch(name, facts, batchID)
	if err == nil {
		// Outside every lock: compaction takes the registry lock plus all
		// structure read locks.
		r.maybeCompact()
	}
	return info, err
}

func (r *Registry) appendBatch(name, facts, batchID string) (StructureInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return StructureInfo{}, err
	}
	// Parse outside the lock (against the immutable signature), merge
	// under it.
	delta, err := parser.ParseStructure(facts, e.b.Signature())
	if err != nil {
		return StructureInfo{}, err
	}
	st, done, err := r.beginWrite()
	if err != nil {
		return StructureInfo{}, err
	}
	defer done()
	e.mu.Lock()
	defer e.mu.Unlock()
	if batchID != "" {
		if info, ok := e.batches[batchID]; ok {
			return info, nil
		}
	}
	if st != nil {
		if err := st.LogAppend(name, batchID, e.b.Version(), facts); err != nil {
			return StructureInfo{}, fmt.Errorf("durability: %w", err)
		}
	}
	inserted, err := structure.Merge(e.b, delta)
	if err != nil {
		return StructureInfo{}, err
	}
	info := StructureInfo{
		Name:     name,
		Size:     e.b.Size(),
		Tuples:   e.b.NumTuples(),
		Version:  e.b.Version(),
		Inserted: inserted,
		BatchID:  batchID,
	}
	if batchID != "" {
		e.rememberBatch(batchID, info)
	}
	return info, nil
}

// beginWrite admits one logged write (append or create), returning the
// attached store (nil when running in-memory) and a completion callback
// the writer must call.  Close refuses new writers and then waits for
// admitted ones, so shutdown never cuts a write between its WAL record
// and its in-memory apply.
func (r *Registry) beginWrite() (*wal.Store, func(), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, errClosed
	}
	r.appendWG.Add(1)
	return r.store, r.appendWG.Done, nil
}

// StructureInfo snapshots one structure's metadata.
func (r *Registry) StructureInfo(name string) (StructureInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return StructureInfo{}, err
	}
	return e.info(name), nil
}

// Structures lists every registered structure, sorted by name.
func (r *Registry) Structures() []StructureInfo {
	r.mu.RLock()
	names := make([]string, 0, len(r.structs))
	for n := range r.structs {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	out := make([]StructureInfo, 0, len(names))
	for _, n := range names {
		if e, err := r.entry(n); err == nil {
			out = append(out, e.info(n))
		}
	}
	return out
}

// counterFor resolves (compiling and caching on first use) the counter
// of a query over a signature.  Counting-equivalent queries compiled
// here share engine plans through the fingerprint-keyed plan cache even
// when their source texts differ.
func (r *Registry) counterFor(src string, sig *structure.Signature) (*core.Counter, error) {
	key := queryKey{src: src, sig: sig.String()}
	r.mu.RLock()
	c := r.queries[key]
	r.mu.RUnlock()
	if c != nil {
		return c, nil
	}
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	c, err = core.NewCounter(q, sig, count.EngineFPT)
	if err != nil {
		return nil, err
	}
	c.WithWorkers(r.workers)
	r.mu.Lock()
	if prev := r.queries[key]; prev != nil {
		c = prev // a concurrent compile won; keep its telemetry
	} else {
		if len(r.queries) >= r.queryCap {
			r.queries = make(map[queryKey]*core.Counter, r.queryCap)
		}
		r.queries[key] = c
	}
	r.mu.Unlock()
	return c, nil
}

// QueryStats snapshots every cached counter's telemetry, sorted by
// query text for stable output.
func (r *Registry) QueryStats() []QueryStats {
	type pair struct {
		key queryKey
		c   *core.Counter
	}
	r.mu.RLock()
	pairs := make([]pair, 0, len(r.queries))
	for k, c := range r.queries {
		pairs = append(pairs, pair{key: k, c: c})
	}
	r.mu.RUnlock()
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].key.src != pairs[j].key.src {
			return pairs[i].key.src < pairs[j].key.src
		}
		return pairs[i].key.sig < pairs[j].key.sig
	})
	out := make([]QueryStats, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, queryStatsFrom(p.key.src, p.c.Stats()))
	}
	return out
}

// reading is the outcome of one count against one structure: the value
// (in approx mode the estimate), the version it was counted at and, in
// approx mode, the estimate's account.
type reading struct {
	v       *big.Int
	version uint64
	approx  core.ApproxResult
}

// read is where a read executes — the one place, behind /count, every
// entry of a /countBatch and a subscription's maintenance alike.  It
// counts c on e, whose read lock the caller holds, so the reading is
// consistent with one version boundary: the version, then the sampler in
// approx mode, else the exact-mode admission rule and the exact count,
// on the caller's goroutine.  A failure comes back typed (countError).
func (r *Registry) read(ctx context.Context, c *core.Counter, e *structEntry, approxMode bool, prm approx.Params) (reading, error) {
	rd := reading{version: e.b.Version()}
	var err error
	if approxMode {
		rd.approx, err = c.CountApproxCtx(ctx, e.b, prm)
		rd.v = rd.approx.Estimate
	} else if err = c.AdmitExact(e.b, r.hardExactLimit); err == nil {
		rd.v, err = c.CountCtx(ctx, e.b)
	}
	if err != nil {
		return reading{}, r.countError(err)
	}
	return rd, nil
}

// countError types a counting failure that is not typed yet: an expired
// deadline (counted for /stats) or a vanished client is 504; everything
// else is 422, with the trichotomy case when the admission rule refused
// exact execution of a hard query.
func (r *Registry) countError(err error) error {
	var ae *APIError
	if errors.As(err, &ae) {
		return err
	}
	ae = &APIError{Status: http.StatusUnprocessableEntity, Msg: err.Error()}
	var hee *core.HardExactError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		r.deadlines.Add(1)
		ae.Status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style
		// semantics map closest onto 504 here.
		ae.Status = http.StatusGatewayTimeout
	case errors.As(err, &hee):
		ae.Case = hee.Case.Short()
	}
	return ae
}

// lockAll acquires the read locks of the named structures in a global
// order (sorted unique names), preventing lock-order inversion against
// writers, and returns the entries aligned with names plus an unlock
// function.
func (r *Registry) lockAll(names []string) (entries []*structEntry, unlock func(), err error) {
	uniq := make(map[string]*structEntry, len(names))
	order := make([]string, 0, len(names))
	for _, n := range names {
		if _, ok := uniq[n]; ok {
			continue
		}
		e, err := r.entry(n)
		if err != nil {
			return nil, nil, err
		}
		uniq[n] = e
		order = append(order, n)
	}
	sort.Strings(order)
	locked := make([]*structEntry, 0, len(order))
	for _, n := range order {
		e := uniq[n]
		e.mu.RLock()
		locked = append(locked, e)
	}
	entries = make([]*structEntry, len(names))
	for i, n := range names {
		entries[i] = uniq[n]
	}
	return entries, func() {
		for _, e := range locked {
			e.mu.RUnlock()
		}
	}, nil
}

// AttachStore installs an opened durability store and the state its
// boot recovery produced: recovered structures join the registry (a
// name collision with an already-registered structure is an error) and
// their batch results seed the idempotency memos.  Structures created
// before the attach (in-process preloads) are not yet in the store, so
// the attach ends with a compaction that snapshots everything.
// compactBytes sets the WAL size that triggers automatic compaction
// (0 = 64 MiB default, < 0 = never).  AttachStore may be called at most
// once, before the registry serves writes.
func (r *Registry) AttachStore(st *wal.Store, rep *wal.RecoverReport, compactBytes int64) error {
	if compactBytes == 0 {
		compactBytes = 64 << 20
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errClosed
	}
	if r.store != nil {
		r.mu.Unlock()
		return fmt.Errorf("a store is already attached")
	}
	preloaded := len(r.structs) > 0
	for _, rs := range rep.Structures {
		if _, dup := r.structs[rs.Name]; dup {
			r.mu.Unlock()
			return fmt.Errorf("recovered structure %q collides with a registered one", rs.Name)
		}
		e := &structEntry{b: rs.B}
		for _, br := range rs.Batches {
			e.rememberBatch(br.BatchID, StructureInfo{
				Name: rs.Name, Size: br.Size, Tuples: br.Tuples,
				Version: br.Version, Inserted: br.Inserted, BatchID: br.BatchID,
			})
		}
		r.structs[rs.Name] = e
	}
	r.store = st
	r.compactBytes = compactBytes
	r.recStructs = len(rep.Structures)
	r.recRecords = rep.Records
	r.recSnaps = rep.Snapshots
	r.recTruncated = rep.TruncatedAt >= 0
	r.mu.Unlock()
	if preloaded {
		return r.Compact()
	}
	return nil
}

// Compact quiesces every structure and runs the store's
// snapshot-then-truncate cycle: all current states become columnar
// snapshots and the WAL restarts empty.  Holding the registry lock plus
// every structure's read lock blocks creations and appends (which log
// to the WAL) for the duration — counts proceed — so no record can slip
// between the snapshots and the truncation.  No-op without a store;
// concurrent calls coalesce.
func (r *Registry) Compact() error {
	if !r.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer r.compacting.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil || r.closed {
		return nil
	}
	names := make([]string, 0, len(r.structs))
	for n := range r.structs {
		names = append(names, n)
	}
	sort.Strings(names)
	snaps := make(map[string]*structure.Structure, len(names))
	locked := make([]*structEntry, 0, len(names))
	for _, n := range names {
		e := r.structs[n]
		e.mu.RLock()
		locked = append(locked, e)
		snaps[n] = e.b
	}
	err := r.store.Compact(snaps)
	for _, e := range locked {
		e.mu.RUnlock()
	}
	return err
}

// maybeCompact triggers a compaction when the WAL has outgrown the
// configured threshold.  Failures are not fatal to the append that
// tripped the trigger: the WAL keeps the state recoverable, and the
// next trigger retries.
func (r *Registry) maybeCompact() {
	r.mu.RLock()
	st, thr := r.store, r.compactBytes
	r.mu.RUnlock()
	if st == nil || thr <= 0 || st.WALSize() < thr {
		return
	}
	_ = r.Compact()
}

// Close begins shutdown: new creates and appends are refused with a
// retryable error, in-flight logged writes drain (each completes both
// its WAL record and its in-memory apply), and then the store flushes
// and closes.  Idempotent; reads keep working against the frozen
// in-memory state.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	st := r.store
	r.mu.Unlock()
	r.appendWG.Wait()
	if st != nil {
		return st.Close()
	}
	return nil
}

// DurabilityStats snapshots the durability layer for /stats.
func (r *Registry) DurabilityStats() DurabilityStats {
	r.mu.RLock()
	st := r.store
	ds := DurabilityStats{
		RecoveredStructures: r.recStructs,
		RecoveredRecords:    r.recRecords,
		RecoveredSnapshots:  r.recSnaps,
		TruncatedTail:       r.recTruncated,
	}
	r.mu.RUnlock()
	if st == nil {
		return ds
	}
	ds.Enabled = true
	s := st.Stats()
	ds.Fsync = s.Fsync
	ds.WALBytes = s.WALBytes
	ds.Appends = s.Appends
	ds.Creates = s.Creates
	ds.Compactions = s.Compactions
	ds.Syncs = s.Syncs
	return ds
}

// servedEngine is the one exact executor epserved runs, as the engine
// fields of its responses spell it.
const servedEngine = "fpt"

// parseEngine validates the wire engine field.  It selects nothing: the
// empty string, "auto" and "fpt" all mean the one exact executor, and
// every other name is refused.
func parseEngine(s string) error {
	switch strings.TrimSpace(s) {
	case "", "auto", servedEngine:
		return nil
	}
	return Errorf(http.StatusBadRequest, "serve: engine %q is not served (want %q, \"auto\" or empty)", s, servedEngine)
}
