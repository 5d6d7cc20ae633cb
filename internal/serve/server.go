package serve

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/engine"
	"repro/internal/wal"
)

// Config tunes an epserved Server.  The zero value serves on an
// OS-chosen port with 64 in-flight counting requests, a 30-second
// per-request deadline, and /countBatch fanning out GOMAXPROCS wide.
type Config struct {
	// Addr is the listen address (":8080"; empty = ":0", an OS-chosen
	// port, reported by Addr after Start).
	Addr string
	// MaxInFlight caps concurrently executing counting requests
	// (/count and /countBatch); excess requests are rejected with 503
	// immediately rather than queued (≤ 0 = 64).  Ingest, append, and
	// stats requests are always admitted.
	MaxInFlight int
	// RequestTimeout is the per-request counting deadline (≤ 0 = 30s).
	// A request's timeout_ms can lower it, never raise it; the deadline
	// is threaded as a context through the executor, so an expired
	// request stops consuming CPU at the executor's poll granularity.
	RequestTimeout time.Duration
	// Workers is the width of the /countBatch fan-out: how many
	// structures of one batch request are counted at once (≤ 0 =
	// GOMAXPROCS).  A single count runs on its request's goroutine.
	Workers int
	// DataDir enables crash-safe durability: structure creations and
	// append batches are write-ahead logged there and recovered on
	// Start, before the listener accepts.  Empty = in-memory only.
	DataDir string
	// Fsync is the WAL sync policy when DataDir is set: "always" (an
	// acknowledged append survives any crash), "batch" (default;
	// bounded loss, near-"never" throughput), or "never".
	Fsync string
	// CompactBytes is the WAL size that triggers snapshot-then-truncate
	// compaction (0 = 64 MiB, < 0 = never).
	CompactBytes int64
	// HardExactLimit enables the trichotomy admission rule: exact-mode
	// counting requests whose query classifies into the hard regime
	// (cases 2/3 of Theorem 3.2) are rejected with a typed 422 error
	// (ErrorResponse.Case set) when the target structure has more than
	// this many tuples — the client should switch to mode "approx".
	// 0 disables the rule (every request is admitted, as before).
	HardExactLimit int
}

// Server is a single epserved node: the local Backend — a structure
// registry, a compiled-query cache, and counting operations that
// execute on their request's goroutine under admission control —
// behind its Frontend.  Create with New, wire into any http.Server
// via Handler, or use Start/Shutdown for the managed lifecycle.
type Server struct {
	*Frontend
	cfg     Config
	reg     *Registry
	started time.Time

	inflight chan struct{}
	inFlight atomic.Int64
	admitted atomic.Uint64
	rejected atomic.Uint64

	// recovering drives Healthz: set until Start's boot recovery finishes
	// (servers without a DataDir are born ready).
	recovering atomic.Bool
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(0, 0),
		started:  time.Now(),
		inflight: make(chan struct{}, cfg.MaxInFlight),
	}
	s.reg.hardExactLimit = cfg.HardExactLimit
	s.Frontend = NewFrontend(s, cfg.Addr, cfg.RequestTimeout)
	s.recovering.Store(cfg.DataDir != "")
	return s
}

// Registry exposes the server's registry (examples and in-process
// drivers preload structures through it).
func (s *Server) Registry() *Registry { return s.reg }

// Start runs boot recovery (when DataDir is configured: open the store,
// replay snapshot + WAL tail, attach it to the registry), then listens
// on cfg.Addr and serves in a background goroutine until Shutdown.
// Recovery completes before the listener binds, so no request ever
// observes a half-recovered registry.  Start returns once the listener
// is bound, so Addr is valid immediately after.
func (s *Server) Start() error {
	if s.recovering.Load() {
		policy, err := wal.ParseSyncPolicy(s.cfg.Fsync)
		if err != nil {
			return err
		}
		st, rep, err := wal.Open(wal.Options{Dir: s.cfg.DataDir, Sync: policy})
		if err != nil {
			return fmt.Errorf("boot recovery: %w", err)
		}
		if err := s.reg.AttachStore(st, rep, s.cfg.CompactBytes); err != nil {
			st.Close()
			return fmt.Errorf("boot recovery: %w", err)
		}
		s.recovering.Store(false)
	}
	return s.Frontend.Start()
}

// Shutdown gracefully stops a Started server: the listener closes
// immediately (new connections are refused), in-flight requests run to
// completion or ctx expires, and then the registry closes — which
// refuses new writes, waits for every in-flight append writer to finish
// both its WAL record and its in-memory apply (even writers whose HTTP
// request ctx already gave up on), and finally flushes and closes the
// durability store.  An acknowledged append therefore cannot be lost to
// a graceful shutdown regardless of fsync policy.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Frontend.Shutdown(ctx)
	if cerr := s.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- the local Backend ----

// admit reserves an in-flight counting slot, or refuses with 503 when
// the server is saturated.  The returned release must be called when
// the request finishes.
func (s *Server) admit() (release func(), err error) {
	select {
	case s.inflight <- struct{}{}:
		s.admitted.Add(1)
		s.inFlight.Add(1)
		return func() {
			s.inFlight.Add(-1)
			<-s.inflight
		}, nil
	default:
		s.rejected.Add(1)
		return nil, Errorf(http.StatusServiceUnavailable, "server at max in-flight counting requests (%d)", s.cfg.MaxInFlight)
	}
}

// errNoStructures refuses a batch count over no structures.
var errNoStructures = Errorf(http.StatusBadRequest, "structures must not be empty")

// countOptions validates a counting request's execution mode and — in
// approx mode — its (ε, δ) target and sample cap: the one check
// behind every surface, and where the local backend reads their parsed
// values.  A zero approx parameter means its default; one out of range
// is refused, never replaced — the answer would misstate what it met.
func countOptions(mode string, prm approx.Params) (approxMode bool, err error) {
	switch mode {
	case "", "exact":
		return false, nil
	case "approx":
		switch {
		case !(prm.Epsilon >= 0): // NaN included
			err = Errorf(http.StatusBadRequest, "serve: epsilon %v out of range (want positive, or 0 for the default)", prm.Epsilon)
		case !(prm.Delta >= 0 && prm.Delta < 1):
			err = Errorf(http.StatusBadRequest, "serve: delta %v out of range (want in (0, 1), or 0 for the default)", prm.Delta)
		case prm.MaxSamples < 0:
			err = Errorf(http.StatusBadRequest, "serve: max_samples %d out of range (want positive, or 0 for the default)", prm.MaxSamples)
		}
		return true, err
	}
	return false, Errorf(http.StatusBadRequest, "serve: unknown mode %q (want \"exact\" or \"approx\")", mode)
}

// IsDuplicate reports whether err is a structure-name collision from
// CreateStructure (HTTP 409 on the wire) — preloaders that want
// create-if-absent semantics test it to skip already-present names.
func IsDuplicate(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusConflict
}

// CreateStructureWith ingests a named structure.
func (s *Server) CreateStructureWith(_ context.Context, req CreateStructureRequest) (StructureInfo, error) {
	info, err := s.reg.CreateStructure(req.Name, req.Facts, req.Signature)
	return info, WithStatus(http.StatusBadRequest, err)
}

// Structures lists the registered structures, sorted by name.
func (s *Server) Structures(context.Context) ([]StructureInfo, error) {
	return s.reg.Structures(), nil
}

// Structure snapshots one structure's metadata.
func (s *Server) Structure(_ context.Context, name string) (StructureInfo, error) {
	return s.reg.StructureInfo(name)
}

// AppendFactsBatch appends facts under an optional idempotency batch id
// (see Registry.AppendFactsBatch).
func (s *Server) AppendFactsBatch(_ context.Context, name, facts, batchID string) (StructureInfo, error) {
	info, err := s.reg.AppendFactsBatch(name, facts, batchID)
	return info, WithStatus(http.StatusBadRequest, err)
}

// CountWith counts a query on one structure, in exact or approx mode,
// under admission control and ctx's deadline.
func (s *Server) CountWith(ctx context.Context, req CountRequest) (*big.Int, CountResponse, error) {
	fail := func(err error) (*big.Int, CountResponse, error) { return nil, CountResponse{}, err }
	release, err := s.admit()
	if err != nil {
		return fail(err)
	}
	defer release()
	prm := req.approxParams()
	approxMode, err := countOptions(req.Mode, prm)
	if err != nil {
		return fail(err)
	}
	e, err := s.reg.entry(req.Structure)
	if err != nil {
		return fail(err)
	}
	// The signature is immutable after ingest, so the counter resolves
	// (and on first use compiles) outside the structure lock.
	c, err := s.reg.counterFor(req.Query, e.b.Signature())
	if err != nil {
		return fail(WithStatus(http.StatusBadRequest, err))
	}
	start := time.Now()
	// The read lock spans version read and count, so the request
	// executes against one consistent structure version.
	e.mu.RLock()
	defer e.mu.RUnlock()
	rd, err := s.reg.read(ctx, c, e, approxMode, prm)
	if err != nil {
		return fail(err)
	}
	resp := CountResponse{
		Count:     rd.v.String(),
		Version:   rd.version,
		ElapsedUS: time.Since(start).Microseconds(),
	}
	if approxMode {
		resp.Estimate = resp.Count
		resp.RelError = rd.approx.RelErr
		resp.Confidence = rd.approx.Confidence
		resp.Case = rd.approx.Case.Short()
		resp.Samples = rd.approx.Samples
		resp.Exact = rd.approx.Exact
		converged := rd.approx.Converged // a copy: &rd's field would move every reading to the heap
		resp.Converged = &converged
	}
	return rd.v, resp, nil
}

// CountBatchWith counts one query on many structures (one shared
// signature), cfg.Workers structures at a time, under admission control
// and ctx's deadline.
func (s *Server) CountBatchWith(ctx context.Context, req CountBatchRequest) ([]*big.Int, CountBatchResponse, error) {
	fail := func(err error) ([]*big.Int, CountBatchResponse, error) { return nil, CountBatchResponse{}, err }
	if len(req.Structures) == 0 {
		return fail(errNoStructures)
	}
	release, err := s.admit()
	if err != nil {
		return fail(err)
	}
	defer release()
	prm := req.approxParams()
	approxMode, err := countOptions(req.Mode, prm)
	if err != nil {
		return fail(err)
	}
	// Resolve (and maybe compile) the counter BEFORE taking the
	// structure locks: counterFor acquires the registry lock, and
	// compaction holds the registry lock while collecting structure
	// locks — taking them in the opposite order here could deadlock
	// three-way with a pending append writer.  The signature is
	// immutable after creation, so reading it lock-free is safe.
	first, err := s.reg.entry(req.Structures[0])
	if err != nil {
		return fail(err)
	}
	sig := first.b.Signature()
	c, err := s.reg.counterFor(req.Query, sig)
	if err != nil {
		return fail(WithStatus(http.StatusBadRequest, err))
	}
	entries, unlock, err := s.reg.lockAll(req.Structures)
	if err != nil {
		return fail(err)
	}
	defer unlock()
	for i, e := range entries {
		if !sig.Equal(e.b.Signature()) {
			return fail(Errorf(http.StatusBadRequest,
				"structures %q and %q have different signatures", req.Structures[0], req.Structures[i]))
		}
	}
	start := time.Now()
	rds := make([]reading, len(entries))
	err = engine.RunBoundedCtx(ctx, len(entries), s.cfg.Workers, func(i int) (err error) {
		rds[i], err = s.reg.read(ctx, c, entries[i], approxMode, prm)
		return err
	})
	if err != nil {
		// Typed already, unless it is the fan-out's own: ctx fired
		// between two entries.
		return fail(s.reg.countError(err))
	}
	vs := make([]*big.Int, len(rds))
	resp := CountBatchResponse{
		Counts:    make([]string, len(rds)),
		Versions:  make([]uint64, len(rds)),
		ElapsedUS: time.Since(start).Microseconds(),
	}
	for i, rd := range rds {
		vs[i], resp.Counts[i], resp.Versions[i] = rd.v, rd.v.String(), rd.version
	}
	if approxMode {
		resp.Estimates = resp.Counts
		resp.RelErrors = make([]float64, len(rds))
		resp.Confidences = make([]float64, len(rds))
		resp.Cases = make([]string, len(rds))
		resp.Samples = make([]int, len(rds))
		resp.Converged = make([]bool, len(rds))
		for i, rd := range rds {
			resp.RelErrors[i] = rd.approx.RelErr
			resp.Confidences[i] = rd.approx.Confidence
			resp.Cases[i] = rd.approx.Case.Short()
			resp.Samples[i] = rd.approx.Samples
			resp.Converged[i] = rd.approx.Converged
		}
	}
	return vs, resp, nil
}

// SubscribeWith registers a maintained count (see Registry.Subscribe).
func (s *Server) SubscribeWith(_ context.Context, req SubscribeRequest) (SubscriptionInfo, error) {
	info, err := s.reg.Subscribe(req.Query, req.Structure, "")
	return info, WithStatus(http.StatusBadRequest, err)
}

// Subscriptions lists the registered subscriptions, sorted by id.
func (s *Server) Subscriptions(context.Context) ([]SubscriptionInfo, error) {
	return s.reg.Subscriptions(), nil
}

// SubscriptionCount reads a maintained count.  The lazy maintenance may
// run a delta advance or a full count, so the read passes through
// admission control like CountWith.
func (s *Server) SubscriptionCount(ctx context.Context, id string) (*big.Int, SubscriptionInfo, error) {
	release, err := s.admit()
	if err != nil {
		return nil, SubscriptionInfo{}, err
	}
	defer release()
	start := time.Now()
	v, info, err := s.reg.subscriptionCount(ctx, id)
	if err != nil {
		return nil, info, err
	}
	info.ElapsedUS = time.Since(start).Microseconds()
	return v, info, nil
}

// Unsubscribe removes a subscription.
func (s *Server) Unsubscribe(_ context.Context, id string) error {
	return s.reg.Unsubscribe(id)
}

// Stats snapshots the server's telemetry.
func (s *Server) Stats(context.Context) (StatsResponse, error) {
	plans, sessions := engine.CacheStats()
	return StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Admission: AdmissionStats{
			InFlight:    s.inFlight.Load(),
			MaxInFlight: s.cfg.MaxInFlight,
			Admitted:    s.admitted.Load(),
			Rejected:    s.rejected.Load(),
			Deadline:    s.reg.deadlines.Load(),
		},
		Workers:       s.cfg.Workers,
		Queries:       s.reg.QueryStats(),
		Structures:    s.reg.Structures(),
		Sessions:      engine.SessionStats(),
		Caches:        CacheStats{Counters: s.reg.queries.Stats(), Plans: plans, Sessions: sessions},
		Delta:         engine.DeltaStats(),
		Subscriptions: s.reg.NumSubscriptions(),
		Durability:    s.reg.DurabilityStats(),
	}, nil
}

// Healthz distinguishes a server still replaying its durability store
// ("recovering") from one ready to serve.
func (s *Server) Healthz(context.Context) error {
	if s.recovering.Load() {
		return Errorf(http.StatusServiceUnavailable, "recovering")
	}
	return nil
}
