package engine

import (
	"context"
	"math/big"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/structure"
)

// Session is the per-structure state of the counting pipeline: the
// materialized constraint tables (a sentence's verdict among them: its
// zero-width predicate table) and the count memo.  One session serves
// every φ⁻af term and sentence of a compiled query, repeated Count
// calls, and batched counting — each distinct constraint scheme is
// materialized against the structure exactly once.  Both memos hold at
// most sessionMemoCap entries (an evicted entry rebuilds on demand).
// Sessions are safe for concurrent use.
type Session struct {
	B *structure.Structure

	version uint64
	snap    structure.Snapshot

	tables *cache.Cache[tableKey, *tableEntry]
	counts *cache.Cache[string, *countEntry]

	mu sync.Mutex // guards prior
	// prior holds the settled, advanceable counts adopted from the
	// structure's previous session (SessionFor carries them across a
	// version bump): instead of recomputing a warm fingerprint from
	// scratch, the delta executor advances its prior value by the rows
	// appended since (delta.go).  Priors live inside the session, so
	// LRU eviction of the session frees them with everything else.
	prior map[string]priorCount
}

// priorCount is one adopted count: its value, the snapshot of the
// structure extent it was computed at, and the plan's advanceable
// state.  All fields are read-only once installed.
type priorCount struct {
	v     *big.Int
	snap  structure.Snapshot
	state *fptDeltaState
}

// countEntry guards one memoized count: the installing caller drives the
// computation and closes ch when it finishes, duplicate requests wait on
// ch (or their own context — a deadlined waiter unblocks without the
// driver) while distinct fingerprints compute concurrently.  state is
// the plan's advanceable state (nil unless the plan is
// delta-maintainable); done flips true only after a successful
// computation, so a concurrent settledCounts can adopt v/state safely
// (the atomic store orders the writes before any reader that observes
// done).
type countEntry struct {
	ch    chan struct{}
	v     *big.Int
	state *fptDeltaState
	err   error
	done  atomic.Bool
}

// tableEntry guards one table's materialization: the registry lock is
// only held to install the entry, so distinct tables build concurrently
// while duplicate requests wait on the entry's lock.  t stays nil until a
// materialization completes: an aborted one (cancelled request) caches
// nothing, and the next request for the table materializes it afresh.
type tableEntry struct {
	mu sync.Mutex
	t  *Table
}

// NewSession builds a fresh session for b.
func NewSession(b *structure.Structure) *Session {
	snap := b.Snapshot()
	return &Session{
		B:       b,
		version: snap.Version,
		snap:    snap,
		tables:  cache.New[tableKey, *tableEntry](sessionMemoCap),
		counts:  cache.New[string, *countEntry](sessionMemoCap),
	}
}

// countMemoState returns the session-cached count of the canonical
// counting class fp, computing it with f on first use.
// One session counts each unique term at most once, no matter how many
// inclusion–exclusion terms, repeated counts, Counters, or batch workers
// ask for it — the per-(session, structure-version) count cache of the
// interned pipeline.  The returned value is shared: callers must treat
// it as read-only.  The bool reports a cache hit.  The compute
// function receives the count's adopted prior (value, snapshot,
// advanceable state from the structure's previous session) when one
// exists, so a delta-maintainable plan can advance it instead of
// recounting; it returns the new value plus the state a future advance
// starts from.
//
// The installing caller becomes the driver; duplicate callers park on
// the entry.  A parked caller whose own ctx fires returns its ctx error
// immediately instead of riding out the driver's computation — a
// serving request's deadline bounds its wait even when another request
// owns the compute.
func (s *Session) countMemoState(ctx context.Context, fp string, f func(prev *priorCount) (*big.Int, *fptDeltaState, error)) (*big.Int, bool, error) {
	e, hit := s.counts.Get(fp)
	if !hit {
		e, hit = s.counts.Add(fp, &countEntry{ch: make(chan struct{})})
	}
	if !hit {
		// Driver path.  The prior is looked up here (not at install
		// time) so the computation sees the freshest adopted state.
		var prev *priorCount
		s.mu.Lock()
		if p, ok := s.prior[fp]; ok {
			prev = &p
		}
		s.mu.Unlock()
		e.v, e.state, e.err = f(prev)
		if e.err == nil {
			e.done.Store(true)
		} else if isCancellation(e.err) {
			// A cancelled computation must not poison the memo: evict the
			// entry before releasing the waiters, so their retries (see
			// CountKeyedCtx) install a fresh one.  Were it evicted mid-run
			// and refilled, the delete only unmemoizes the refill.
			s.counts.Delete(fp)
		}
		close(e.ch)
		return e.v, false, e.err
	}
	select {
	case <-e.ch:
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
	return e.v, hit, e.err
}

// tableKey identifies a constraint scheme's materialization: atom tables
// by (relation, projection template), predicate tables by the structural
// encoding of the ∃-component and its interface (predKey).  Two
// constraints with the same key have identical tables on any structure.
type tableKey struct {
	kind byte // 'a' atom, 'p' predicate
	rel  string
	enc  string
}

func makeTableKey(c *planConstraint) tableKey {
	if c.sub == nil {
		return tableKey{kind: 'a', rel: c.rel, enc: structure.TupleKey(c.atomTmpl, nil) + ";" + strconv.Itoa(len(c.scope))}
	}
	return tableKey{kind: 'p', enc: predKey(c.sub, c.iface)}
}

// predKey encodes an ∃-component up to the names of its elements: the
// interface elements are renumbered 0..k-1 in iface order (the table's
// column order), the quantified ones k.. in index order, and each
// relation's renumbered tuples are listed sorted.  Equal keys mean
// isomorphic components with matching interface columns, hence identical
// predicate tables on every structure; the encoding is not a canonical
// form — components that differ in the order of their quantified
// elements get distinct keys and merely miss the sharing.
func predKey(sub *structure.Structure, iface []int) string {
	renum := make([]int, sub.Size())
	for v := range renum {
		renum[v] = -1
	}
	for i, v := range iface {
		renum[v] = i
	}
	next := len(iface)
	for v := range renum {
		if renum[v] < 0 {
			renum[v] = next
			next++
		}
	}
	var enc []byte
	enc = strconv.AppendInt(enc, int64(len(iface)), 10)
	sig := sub.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		r := sig.Rel(ri)
		var tuples []string
		var buf []byte
		sub.ForEachTuple(r.Name, func(t []int) bool {
			buf = buf[:0]
			for _, v := range t {
				buf = strconv.AppendInt(append(buf, ','), int64(renum[v]), 10)
			}
			tuples = append(tuples, string(buf))
			return true
		})
		if len(tuples) == 0 {
			continue
		}
		sort.Strings(tuples)
		enc = append(append(enc, ';'), r.Name...)
		for _, t := range tuples {
			enc = append(append(enc, '('), t...)
		}
	}
	return string(enc)
}

// sessionMemoCap bounds each session's table and count memos.
const sessionMemoCap = 1024

// execPlanFor returns the component's execution plan bound to this
// session's tables (or empty=true when pruning emptied some table): the
// semi-join pre-pruning pass, then the per-node constraint bind orders
// and the prefix indexes the steps probe.  It runs on every count that
// the count memo does not answer; the tables' prefix indexes are cached
// on the tables themselves (prefixIndex), so an unpruned table is
// indexed once per session.
func (s *Session) execPlanFor(pc *planComponent, tables []*Table) (*execPlan, bool) {
	pruned, empty := semiJoinPrune(pc, tables, s.B.Size())
	if empty {
		return nil, true
	}
	return newExecPlan(pc, pruned, nil), false
}

// tableFor returns the materialized table of the constraint, building it
// on first use and sharing it afterwards.  Distinct constraints
// materialize concurrently; duplicate requests block only on their own
// table.  done (nil = never fires) interrupts a predicate
// materialization: the result is nil then, and nothing is cached.
func (s *Session) tableFor(c *planConstraint, done <-chan struct{}) *Table {
	e, ok := s.tables.Get(c.key)
	if !ok {
		e, _ = s.tables.Add(c.key, &tableEntry{})
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.t == nil {
		if c.sub == nil {
			e.t = s.materializeAtom(c)
		} else {
			e.t = s.materializePredicate(c, done)
		}
	}
	return e.t
}

// materializeAtom returns the atom's table: the store's rows themselves
// for a plain binary atom over a relation that keeps them (storeRows),
// else B's relation projected through the atom's template directly off
// the columnar store into the table's flat row-major cells (no [][]int
// materialization of the relation).  Nothing is deduplicated because
// nothing can repeat: every argument position maps to a scope position,
// so the projection is injective on the rows that pass the
// repeated-variable filter, and a relation is a set — the table has one
// row per passing relation row, in row order.
func (s *Session) materializeAtom(c *planConstraint) *Table {
	rel := s.B.Rel(c.rel)
	if t := storeRows(c, rel, s.B.Size()); t != nil {
		return t
	}
	width := len(c.scope)
	t := newTable(width, s.B.Size())
	n := rel.Len()
	t.flat = make([]int32, 0, n*width)
	vals := make([]int, width)
	for row := 0; row < n; row++ {
		if c.project(rel, row, vals) {
			t.appendRow(vals)
		}
	}
	return t
}

// project writes the atom's projection of rel's row into vals (one cell
// per scope position) and reports whether the row passes the atom's
// repeated-variable filter: argument positions the template maps to one
// scope position must hold one value.
func (c *planConstraint) project(rel *structure.Relation, row int, vals []int) bool {
	for p := range vals {
		vals[p] = -1
	}
	for a, p := range c.atomTmpl {
		u := rel.Value(row, a)
		if vals[p] >= 0 && vals[p] != u {
			return false
		}
		vals[p] = u
	}
	return true
}

// materializePredicate computes an ∃-component predicate — the interface
// assignments that extend to a homomorphism of the component — by running
// the join executor over the component itself (compilePredicate) in the
// existence semiring: the constraint tables are the session's atom
// tables, and the root bag's projection onto the interface is the answer.
// The run is one-shot per (predicate, session), so everything it binds —
// pruned table copies, prefix indexes, transposed rows, the bind plan —
// hangs off views of the shared atom tables and is garbage once the rows
// are emitted; the shared tables themselves are never touched.  The
// answer is built as rows when it is on two positions and fits them,
// whatever form its key set has: a flat one's words are its rows already
// (unless the key's stride is wider than the universe's rows), a hashed
// or spilled one's keys set the rows' bits.  Otherwise it is built as
// tuples.  Returns nil when done fired mid-run.
func (s *Session) materializePredicate(c *planConstraint, done <-chan struct{}) *Table {
	dom := s.B.Size()
	out := newTable(len(c.scope), dom)
	tables := make([]*Table, len(c.pred.constraints))
	for i := range c.pred.constraints {
		at := s.tableFor(&c.pred.constraints[i], nil)
		if at.n == 0 {
			return out // an atom of the component has no rows: nothing extends
		}
		// A view of the shared table (its layout is fixed when it is built)
		// whose indexes, transposes and pruned copies are the run's own.
		tables[i] = &Table{width: at.width, n: at.n, dom: dom, flat: at.flat, bitRows: at.bitRows, stride: at.stride}
	}
	pruned, empty := semiJoinPrune(c.pred, tables, dom)
	if empty {
		return out
	}
	keys, aborted := projectKeys(c.pred, newExecPlan(c.pred, pruned, nil), dom, c.predProj, done)
	if aborted {
		return nil
	}
	if out.width == 2 && dom >= rowsMinDom && structure.BitRowsFit(2, dom, keys.len()) {
		// Row u of a flat key set is its keys u<<bits | v, 1<<(bits-6) words.
		m, words := keys.bits, (dom+63)/64
		if m == nil || 1<<(keys.codec.bits-6) != words {
			m = make([]uint64, dom*words)
			keys.forEach(make([]int, 2), func(uv []int, _ wnum) { m[uv[0]*words+uv[1]>>6] |= 1 << (uv[1] & 63) })
		}
		return rowsTable(m[:dom*words], words, dom)
	}
	tupleLayouts.Add(1)
	out.flat = make([]int32, 0, keys.len()*out.width)
	keys.forEach(make([]int, out.width), func(vals []int, _ wnum) { out.appendRow(vals) })
	return out
}

// The session registry memoizes sessions per structure identity, keyed by
// pointer and validated by mutation version, so one-shot Plan.Count calls
// against a repeatedly used structure share materializations with every
// other caller.  It holds sessionCacheCap sessions; past that, CLOCK
// eviction (internal/cache) drops a session not hit since the hand last
// passed it, so hot sessions keep their materialized tables under cap
// pressure.
const sessionCacheCap = 64

var (
	sessions  = cache.New[*structure.Structure, *Session](sessionCacheCap)
	sessionMu sync.Mutex // serializes installs: a stale session is replaced, its priors carried, once
)

// SessionCacheStats is a snapshot of the process-wide session registry:
// how many structures currently hold a cached session (materialized
// constraint tables, count memos), the registry's capacity, and how
// many sessions cap pressure has evicted since process start.
// Long-running services surface it next to core.Counter.Stats.
type SessionCacheStats struct {
	Sessions  int    `json:"sessions"`
	Cap       int    `json:"cap"`
	Evictions uint64 `json:"evictions"`
}

// SessionStats returns a consistent snapshot of the session registry's
// telemetry.  Safe for concurrent use.
func SessionStats() SessionCacheStats {
	st := sessions.Stats()
	return SessionCacheStats{Sessions: st.Len, Cap: st.Cap, Evictions: st.Evictions}
}

// ArenaChunksLive returns 0: session tables live on the Go heap, and no
// arena chunks exist any more.  It stays for benchmark/ladder.go's gauge.
func ArenaChunksLive() int64 { return 0 }

// SessionFor returns the cached session of b, creating (or replacing a
// stale) one as needed.  A hit on a current session takes only the
// registry's read lock; NewSession is cheap (all materialization is
// lazy), so installs run under sessionMu.  A session that leaves the
// registry (stale replacement, eviction, ReleaseSession) is only dropped
// from it: counts still running on it keep its tables alive and finish
// exactly, and the collector takes its memory after the last of them
// returns.
//
// Replacing a stale session carries its settled advanceable counts into
// the new one as priors (settledCounts), so a warm memo survives the
// version bump: the next keyed count advances the prior by the appended
// delta instead of recounting (delta.go).  Priors exist only inside the
// owning session — a session evicted or released takes its priors with
// it, so advanceable memos never outlive their structure's registry
// entry.
func SessionFor(b *structure.Structure) *Session {
	v := b.Version()
	if s, ok := sessions.Get(b); ok && s.version == v {
		return s
	}
	sessionMu.Lock()
	defer sessionMu.Unlock()
	ns := NewSession(b)
	s, ok := sessions.Add(b, ns)
	if !ok || s.version == v {
		return s // installed now, or by a concurrent caller
	}
	if s.version < v {
		// Priors are advanceable only FORWARD: the delta path
		// reconciles "state at s.version" up to v by scanning the
		// rows appended in between.  A version that moved backwards
		// (the structure was rebuilt or replaced underneath us, e.g.
		// by recovery tooling) has no such delta, so the stale
		// session's counts are unusable — drop them.
		ns.prior = s.settledCounts()
	}
	sessions.Delete(b)
	sessions.Add(b, ns)
	return ns
}

// settledCounts collects the session's advanceable counts for adoption
// by its successor: every prior it never got around to refreshing, then
// every entry that finished successfully with delta state (stamped with
// this session's snapshot).  Entries without state cannot be advanced
// and are dropped.  Returns nil past the memo cap — a memo, not a
// store.
func (s *Session) settledCounts() map[string]priorCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]priorCount, len(s.prior)+s.counts.Stats().Len)
	for k, p := range s.prior {
		out[k] = p
	}
	for k, e := range s.counts.All() {
		if e.done.Load() && e.state != nil {
			out[k] = priorCount{v: e.v, snap: s.snap, state: e.state}
		}
	}
	if len(out) == 0 || len(out) > sessionMemoCap {
		return nil
	}
	return out
}

// ReleaseSession drops b's cached session (if any) from the registry,
// so its materialized tables and memos become garbage once no count is
// running on it.  Long-lived processes that are done with a structure
// can call this instead of waiting for cap-triggered eviction.
func ReleaseSession(b *structure.Structure) { sessions.Delete(b) }
