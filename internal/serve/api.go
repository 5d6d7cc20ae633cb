package serve

import (
	"repro/internal/approx"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/term"
)

// The wire types of the epserved HTTP/JSON API, shared by the handlers
// and the Client.  Counts travel as decimal strings: answer counts are
// big integers (|B|^|S| grows past every fixed-width type) and JSON
// numbers are lossy beyond 2^53.

// RelSpec names one relation of a signature: {"name": "E", "arity": 2}.
type RelSpec struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
}

// CreateStructureRequest ingests a named structure.  Facts is the fact
// syntax accepted by epcq.ParseStructure (optionally with a universe
// declaration); Signature is optional — when absent, relation arities
// are inferred from the facts.
type CreateStructureRequest struct {
	Name      string    `json:"name"`
	Facts     string    `json:"facts"`
	Signature []RelSpec `json:"signature,omitempty"`
}

// AppendFactsRequest appends facts to an existing structure.  New
// element names extend the universe; duplicate tuples are ignored.  The
// append is atomic with respect to concurrent counts: every count
// observes either the whole batch or none of it.
type AppendFactsRequest struct {
	Facts string `json:"facts"`
	// BatchID is an optional client-chosen idempotency id for the batch.
	// A non-empty id makes the append safely retryable: if the server
	// has recently applied a batch with the same id to this structure —
	// including before a crash, the memo survives recovery — it returns
	// the original response instead of re-applying, and echoes the id.
	BatchID string `json:"batch_id,omitempty"`
}

// StructureInfo describes one registered structure.  Version increases
// only with every *effective* mutation — a fully-duplicate append batch
// inserts nothing and leaves the version (and therefore every cached
// session and memoized count) untouched.  Counts report the version
// they executed against, so clients can correlate answers with ingest
// checkpoints.
type StructureInfo struct {
	Name    string `json:"name"`
	Size    int    `json:"size"`    // universe size
	Tuples  int    `json:"tuples"`  // total tuples across relations
	Version uint64 `json:"version"` // effective-mutation counter
	// Inserted is the number of tuples the append producing this
	// response actually inserted (dedup-aware: duplicates in the batch
	// or already present do not count).  Zero outside append responses.
	Inserted int `json:"inserted,omitempty"`
	// BatchID echoes the append request's idempotency id (append
	// responses only; empty when the client sent none).
	BatchID string `json:"batch_id,omitempty"`
}

// StructuresResponse lists the registry.
type StructuresResponse struct {
	Structures []StructureInfo `json:"structures"`
}

// CountRequest counts a query's answers on one named structure.
type CountRequest struct {
	// Query is the ep-query source text, e.g.
	// "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)".
	Query string `json:"query"`
	// Structure is the registered structure's name.
	Structure string `json:"structure"`
	// TimeoutMillis lowers the server's per-request deadline for this
	// request (0 = server default; values above the server default are
	// clamped to it).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Mode selects the execution mode: "exact" (default) or "approx".
	// Approx mode routes each term of the query through the trichotomy
	// classifier — FPT terms run the exact executor, hard terms the
	// sampling estimator — and the response carries estimate, rel_error,
	// confidence, case, and converged alongside count.
	Mode string `json:"mode,omitempty"`
	// Epsilon / Delta are the approx-mode (ε, δ) target: relative error
	// ε with probability ≥ 1-δ (defaults 0.1 / 0.05).  Ignored in exact
	// mode.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// MaxSamples caps the draws each sampled component may spend
	// (0 = engine default).  Ignored in exact mode.
	MaxSamples int `json:"max_samples,omitempty"`
	// Seed seeds the approx-mode RNG; the same seed yields the same
	// estimate (0 = engine default).  Ignored in exact mode.
	Seed int64 `json:"seed,omitempty"`
}

// approxParams collects the request's approx-mode parameters.
func (r CountRequest) approxParams() approx.Params {
	return approx.Params{Epsilon: r.Epsilon, Delta: r.Delta, MaxSamples: r.MaxSamples, Seed: r.Seed}
}

// CountResponse is one count: the decimal answer count and the
// structure version it was computed against.  Approx-mode responses
// also populate the estimate block (Count then equals Estimate, so
// mode-unaware readers keep working).
type CountResponse struct {
	Count     string `json:"count"`
	Version   uint64 `json:"version"`
	ElapsedUS int64  `json:"elapsed_us"`
	// Estimate is the approximate count as a decimal string (approx
	// mode only; equal to Count).
	Estimate string `json:"estimate,omitempty"`
	// RelError is the achieved relative half-width of the confidence
	// interval; Confidence the probability the true count lies within
	// Estimate·(1±RelError).
	RelError   float64 `json:"rel_error,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// Case is the query's hardest trichotomy case ("fpt", "clique",
	// "sharp-clique") — the signal that drove the routing.
	Case string `json:"case,omitempty"`
	// Samples is the total sampling budget spent; Exact reports that
	// every term resolved exactly (RelError 0, Confidence 1).
	Samples int  `json:"samples,omitempty"`
	Exact   bool `json:"exact,omitempty"`
	// Converged states whether the estimate met its (ε, δ) target: false
	// means some sampled component hit max_samples first, and RelError
	// is the wider interval actually achieved.  Always present in approx
	// mode, absent in exact mode.
	Converged *bool `json:"converged,omitempty"`
}

// CountBatchRequest counts one query on many named structures in one
// request, Config.Workers of them at a time.
type CountBatchRequest struct {
	Query         string   `json:"query"`
	Structures    []string `json:"structures"`
	TimeoutMillis int64    `json:"timeout_ms,omitempty"`
	// Mode / Epsilon / Delta / MaxSamples / Seed are the approx-mode
	// knobs, with the same semantics as on CountRequest, applied to
	// every structure of the batch.
	Mode       string  `json:"mode,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
}

// approxParams collects the request's approx-mode parameters.
func (r CountBatchRequest) approxParams() approx.Params {
	return approx.Params{Epsilon: r.Epsilon, Delta: r.Delta, MaxSamples: r.MaxSamples, Seed: r.Seed}
}

// CountBatchResponse carries the per-structure counts in request order,
// with the versions they were computed against.  Approx-mode responses
// also carry the per-structure estimate blocks (aligned with Counts;
// Counts then equals Estimates).
type CountBatchResponse struct {
	Counts    []string `json:"counts"`
	Versions  []uint64 `json:"versions"`
	ElapsedUS int64    `json:"elapsed_us"`
	Estimates []string `json:"estimates,omitempty"`
	// RelErrors / Confidences / Cases / Samples / Converged align with
	// Counts (approx mode only); see CountResponse for the field
	// semantics.
	RelErrors   []float64 `json:"rel_errors,omitempty"`
	Confidences []float64 `json:"confidences,omitempty"`
	Cases       []string  `json:"cases,omitempty"`
	Samples     []int     `json:"samples,omitempty"`
	Converged   []bool    `json:"converged,omitempty"`
}

// SubscribeRequest registers a maintained count: a query bound to a
// registered structure.  Registration is cheap (parse + compile, no
// count); the maintained count materializes lazily on the first
// subscription read and is then advanced across append batches by the
// engine's incremental delta path instead of being recomputed.
type SubscribeRequest struct {
	Query     string `json:"query"`
	Structure string `json:"structure"`
}

// SubscriptionInfo describes one subscription.  Count (a decimal
// string) and Version are set on subscription reads: Count is the
// maintained count at Version, the structure's version at read time.
// On registration and in listings they reflect the last maintained
// state (absent before the first read).
type SubscriptionInfo struct {
	ID        string `json:"id"`
	Query     string `json:"query"`
	Structure string `json:"structure"`
	Count     string `json:"count,omitempty"`
	Version   uint64 `json:"version,omitempty"`
	ElapsedUS int64  `json:"elapsed_us,omitempty"`
}

// SubscriptionsResponse lists the registered subscriptions.
type SubscriptionsResponse struct {
	Subscriptions []SubscriptionInfo `json:"subscriptions"`
}

// QueryStats is one cached query's compile- and run-time telemetry.
type QueryStats struct {
	// Query is the source text the counter was registered under.
	Query string `json:"query"`
	// Pool is the canonical term pool's interning summary.
	Pool term.Stats `json:"pool"`
	// Plans / SharedPlans: engine plans backing the counter, and how
	// many came out of the process-wide fingerprint-keyed plan cache
	// (compiled earlier by a counting-equivalent query).
	Plans       int `json:"plans"`
	SharedPlans int `json:"shared_plans"`
	// CountCacheHits/Misses are the per-session count-memo outcomes.
	CountCacheHits   uint64 `json:"count_cache_hits"`
	CountCacheMisses uint64 `json:"count_cache_misses"`
	// Case is the counter's hardest trichotomy case under the route
	// bounds; TermsHard the number of approx-routed terms; ApproxCounts
	// the approximate term evaluations served so far.
	Case         string `json:"case,omitempty"`
	TermsHard    int    `json:"terms_hard,omitempty"`
	ApproxCounts uint64 `json:"approx_counts,omitempty"`
}

// AdmissionStats counts the admission controller's decisions since
// server start.
type AdmissionStats struct {
	// InFlight is the number of counting requests currently executing.
	InFlight int64 `json:"in_flight"`
	// MaxInFlight is the admission cap.
	MaxInFlight int `json:"max_in_flight"`
	// Admitted / Rejected: counting requests let through / turned away
	// with 503 because the cap was reached.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	// Deadline counts reads that hit their request's deadline: one per
	// /count or subscription read, one per structure that was being
	// counted when a /countBatch ran out of time.
	Deadline uint64 `json:"deadline"`
}

// DurabilityStats is the /stats durability section: whether a store is
// attached, its fsync policy and WAL size, operation counters, and what
// boot recovery consumed.
type DurabilityStats struct {
	// Enabled reports whether the server runs with a durability store
	// (-data-dir); everything below is zero when it does not.
	Enabled bool `json:"enabled"`
	// Fsync is the active WAL sync policy ("always", "batch", "never").
	Fsync string `json:"fsync,omitempty"`
	// WALBytes is the current write-ahead log size.
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// Appends / Creates count records logged since start; Compactions
	// counts snapshot-then-truncate cycles; Syncs counts WAL fsyncs.
	Appends     uint64 `json:"appends,omitempty"`
	Creates     uint64 `json:"creates,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
	Syncs       uint64 `json:"syncs,omitempty"`
	// RecoveredStructures / RecoveredSnapshots / RecoveredRecords say
	// what boot recovery rebuilt; TruncatedTail reports whether a torn
	// or corrupt WAL suffix was cut during that recovery.
	RecoveredStructures int  `json:"recovered_structures,omitempty"`
	RecoveredSnapshots  int  `json:"recovered_snapshots,omitempty"`
	RecoveredRecords    int  `json:"recovered_records,omitempty"`
	TruncatedTail       bool `json:"truncated_tail,omitempty"`
}

// HealthzResponse is the /healthz body.  State is "recovering" while
// boot recovery replays the store (served 503 — the listener is not yet
// accepting then, but in-process handlers can observe it), "ready" when
// serving.
type HealthzResponse struct {
	OK    bool   `json:"ok"`
	State string `json:"state"`
}

// ShardStats is one shard's contribution to an aggregated cluster
// /stats view: the shard's address, whether its health check answered,
// and the headline counters of its own StatsResponse.
type ShardStats struct {
	// Node is the shard's base URL.
	Node string `json:"node"`
	// Healthy reports whether the shard answered the stats fan-out.
	Healthy bool `json:"healthy"`
	// Structures is the number of structures registered on the shard
	// (a replica counts once per holding shard).
	Structures int `json:"structures"`
	// Admission is the shard's admission telemetry.
	Admission AdmissionStats `json:"admission"`
	// CountCacheHits/Misses sum the shard's per-query count-memo
	// outcomes.
	CountCacheHits   uint64 `json:"count_cache_hits"`
	CountCacheMisses uint64 `json:"count_cache_misses"`
	// Delta is the shard's incremental-maintenance counters.
	Delta engine.DeltaCounters `json:"delta"`
	// Subscriptions is the shard's registered-subscription count.
	Subscriptions int `json:"subscriptions"`
}

// ClusterStats is the coordinator's addition to an aggregated /stats
// response: the per-shard breakdown plus router-level telemetry.  The
// surrounding StatsResponse fields hold the cluster-wide merge (summed
// admission counters, merged query stats, summed delta counters), so a
// dashboard written against a single node reads the same shape.
type ClusterStats struct {
	// Shards is the per-shard breakdown, in configuration order.
	Shards []ShardStats `json:"shards"`
	// Replicas is the configured replication factor.
	Replicas int `json:"replicas"`
	// VirtualNodes is the ring's virtual-node count per shard.
	VirtualNodes int `json:"virtual_nodes"`
	// ScatterGathers counts fanned-out /countBatch requests; Failovers
	// counts replica failovers on reads; Rerouted counts structure
	// groups rerouted to another replica after a shard-level batch
	// failure.
	ScatterGathers uint64 `json:"scatter_gathers"`
	Failovers      uint64 `json:"failovers"`
	Rerouted       uint64 `json:"rerouted"`
}

// StatsResponse is the /stats snapshot: admission telemetry, the
// per-query counter statistics, the structure registry, the
// process-wide engine session registry and caches, the
// incremental-maintenance counters, the number of registered
// subscriptions, and the durability layer; Workers is the /countBatch fan-out width (Config.Workers,
// resolved).  A cluster coordinator answers the same shape with every
// counter merged across its shards and the per-shard breakdown under
// Cluster.
type StatsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Admission     AdmissionStats           `json:"admission"`
	Workers       int                      `json:"workers"`
	Queries       []QueryStats             `json:"queries"`
	Structures    []StructureInfo          `json:"structures"`
	Sessions      engine.SessionCacheStats `json:"sessions"`
	Caches        CacheStats               `json:"caches"`
	Delta         engine.DeltaCounters     `json:"delta"`
	Subscriptions int                      `json:"subscriptions"`
	Durability    DurabilityStats          `json:"durability"`
	// Cluster is set only on coordinator responses.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// CacheStats is the /stats caches section: the process-wide caches — the
// registry's compiled counters, the engine's fingerprint-keyed plans and
// its session registry (whose counts the sessions section repeats).
type CacheStats struct {
	Counters cache.Stats `json:"counters"`
	Plans    cache.Stats `json:"plans"`
	Sessions cache.Stats `json:"sessions"`
}

// ErrorResponse is the JSON body of every non-2xx response.  Case is
// set on admission-control rejections of exact-mode hard queries (the
// typed rejection clients switch to approx mode on): the query's
// hardest trichotomy case, as in CountResponse.Case.
type ErrorResponse struct {
	Error string `json:"error"`
	Case  string `json:"case,omitempty"`
}

// queryStatsFrom flattens a counter's Stats into the wire shape.
func queryStatsFrom(query string, st core.Stats) QueryStats {
	return QueryStats{
		Query:            query,
		Pool:             st.Pool,
		Plans:            st.Plans,
		SharedPlans:      st.SharedPlans,
		CountCacheHits:   st.CountCacheHits,
		CountCacheMisses: st.CountCacheMisses,
		Case:             st.HardestCase.Short(),
		TermsHard:        st.TermsHard,
		ApproxCounts:     st.ApproxCounts,
	}
}
