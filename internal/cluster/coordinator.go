package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config tunes a cluster Coordinator.
type Config struct {
	// Shards are the shard nodes' base URLs ("http://10.0.0.1:8080").
	// At least one; order is the stable node identity the ring hashes.
	Shards []string
	// Replicas is the replication factor R: structures are created on R
	// distinct ring successors and reads fail over among them (≤ 0 or
	// > len(Shards) clamps into [1, len(Shards)]).
	Replicas int
	// VNodes is the ring's virtual-node count per shard (≤ 0 = 64).
	VNodes int
	// MaxIdleConnsPerHost sizes the shared transport's keep-alive pool
	// per shard (≤ 0 = 32) — the scatter-gather fan-out knob.
	MaxIdleConnsPerHost int
	// Retry is the per-shard client retry policy applied to idempotent
	// calls before the coordinator fails over to another replica
	// (zero value = 2 attempts, 25ms base, 250ms cap).
	Retry serve.RetryPolicy
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > len(c.Shards) {
		c.Replicas = len(c.Shards)
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = serve.RetryPolicy{MaxAttempts: 2, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	}
	return c
}

// Coordinator is the cluster router: a serve.Backend composed of the
// shard fleet's Backends — consistent-hash routing with replication.
// Served through a serve.Frontend it speaks the same HTTP/JSON API as
// a single epserved node (serve.Client works against it unchanged).
// Create with New; mount Handler, or hand the coordinator to
// serve.NewFrontend for a managed listener.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	shards  []serve.Backend // aligned with cfg.Shards
	nodeIdx map[string]int
	started time.Time

	scatters  atomic.Uint64
	failovers atomic.Uint64
	rerouted  atomic.Uint64

	batchPrefix string
	batchSeq    atomic.Uint64
}

// New builds a Coordinator over the configured shard fleet.  It does
// not contact the shards; routing state is purely local (the ring).
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	hc := serve.SharedTransport(cfg.MaxIdleConnsPerHost)
	var rnd [6]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:         cfg,
		ring:        ring,
		nodeIdx:     make(map[string]int, len(cfg.Shards)),
		started:     time.Now(),
		batchPrefix: hex.EncodeToString(rnd[:]),
	}
	for i, s := range cfg.Shards {
		co.shards = append(co.shards, serve.NewClient(s, hc).WithRetry(cfg.Retry))
		co.nodeIdx[s] = i
	}
	return co, nil
}

// shard returns a shard node's backend.
func (co *Coordinator) shard(node string) serve.Backend { return co.shards[co.nodeIdx[node]] }

// fanOut runs op on every shard concurrently; results and errors align
// with cfg.Shards.
func fanOut[T any](co *Coordinator, op func(serve.Backend) (T, error)) ([]T, []error) {
	out := make([]T, len(co.shards))
	errs := make([]error, len(co.shards))
	var wg sync.WaitGroup
	for i, b := range co.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = op(b)
		}()
	}
	wg.Wait()
	return out, errs
}

// Ring exposes the coordinator's hash ring (telemetry, tests).
func (co *Coordinator) Ring() *Ring { return co.ring }

// Replicas returns the effective replication factor (clamped to the
// shard count).
func (co *Coordinator) Replicas() int { return co.cfg.Replicas }

// Handler returns the coordinator behind the one epserved HTTP surface,
// with the default request deadline.
func (co *Coordinator) Handler() http.Handler { return serve.NewFrontend(co, "", 0).Handler() }

// genBatchID mints a cluster-unique append idempotency id, used when a
// client appends without one: the same id propagates the batch to
// every replica, so the per-structure batch memos make the multi-
// replica apply exactly-once even under the coordinator's own retries.
func (co *Coordinator) genBatchID() string {
	return fmt.Sprintf("coord-%s-%d", co.batchPrefix, co.batchSeq.Add(1))
}

// ---- routing primitives ----

// failoverable reports whether a routed call's failure is worth
// retrying on another replica: transport-level errors (connection
// refused or dropped — the node is gone or restarting) and the
// transient statuses 503 (admission or graceful shutdown), 504
// (deadline) and 404 (replica missing the structure, e.g. a lagging
// create).  Semantic failures (400, 409, 422) fail identically on
// every replica and are returned as-is.
func failoverable(err error) bool {
	var ae *serve.APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusNotFound:
			return true
		}
		return false
	}
	return true
}

// replicaAt picks the warm replica for (query, structure): the ring's
// owner list rotated by a query hash, so the same query on the same
// structure always lands on the same replica (its session memo stays
// warm) while distinct queries spread across the replica set.
func (co *Coordinator) replicaAt(query, name string) (owners []string, start int) {
	owners = co.ring.Owners(name, co.cfg.Replicas)
	start = int(ringHash(query) % uint64(len(owners)))
	return owners, start
}

// failover runs op on the replicas in rotation from owners[start],
// moving on while the failure is failoverable and ctx is live, and
// returns the last outcome.  skip (if non-empty) is excluded up front —
// the group reroute path uses it to avoid a shard that just failed a
// batch.
func (co *Coordinator) failover(ctx context.Context, owners []string, start int, skip string, op func(serve.Backend) error) (err error) {
	tried := false
	for i := range owners {
		node := owners[(start+i)%len(owners)]
		if node == skip && len(owners) > 1 {
			continue
		}
		if tried {
			co.failovers.Add(1)
		}
		tried = true
		if err = op(co.shard(node)); err == nil || !failoverable(err) || ctx.Err() != nil {
			break
		}
	}
	return err
}

// countOne routes one count to its warm replica, with failover.
func (co *Coordinator) countOne(ctx context.Context, req serve.CountRequest, skip string) (v *big.Int, resp serve.CountResponse, err error) {
	owners, start := co.replicaAt(req.Query, req.Structure)
	err = co.failover(ctx, owners, start, skip, func(b serve.Backend) (err error) {
		v, resp, err = b.CountWith(ctx, req)
		return err
	})
	return v, resp, err
}

// slot is structure j's share of a batch response, in the shape of a
// single count (the estimate block is there in approx mode only).
func slot(r serve.CountBatchResponse, j int) serve.CountResponse {
	s := serve.CountResponse{Count: r.Counts[j], Version: r.Versions[j]}
	if j < len(r.Estimates) {
		s.Estimate, s.RelError, s.Confidence = r.Estimates[j], r.RelErrors[j], r.Confidences[j]
		s.Case, s.Samples, s.Converged = r.Cases[j], r.Samples[j], &r.Converged[j]
	}
	return s
}

// scatterBatch fans one query over many structures.  They group by
// their warm replica shard, each group runs as one upstream batch
// count, the groups run concurrently, and results reassemble in
// request order.  req carries the query, timeout,
// and the approx-mode knobs applied to every structure.  A shard-level
// failoverable failure (503 from a node draining, a dropped connection)
// does not fail the request: that group's structures reroute
// individually to surviving replicas.
func (co *Coordinator) scatterBatch(ctx context.Context, req serve.CountBatchRequest) ([]*big.Int, serve.CountBatchResponse, error) {
	names := req.Structures
	approxMode := req.Mode == "approx"
	vals := make([]*big.Int, len(names))
	out := serve.CountBatchResponse{Counts: make([]string, len(names)), Versions: make([]uint64, len(names))}
	if approxMode {
		out.Estimates = make([]string, len(names))
		out.RelErrors = make([]float64, len(names))
		out.Confidences = make([]float64, len(names))
		out.Cases = make([]string, len(names))
		out.Samples = make([]int, len(names))
		out.Converged = make([]bool, len(names))
	}
	// put stores structure i's result; distinct i never share a slot, so
	// the goroutines below write concurrently.  errs[i] is the failure of
	// the work that structure i started.
	put := func(i int, v *big.Int, r serve.CountResponse) {
		vals[i], out.Counts[i], out.Versions[i] = v, r.Count, r.Version
		if approxMode {
			out.Estimates[i], out.RelErrors[i], out.Confidences[i] = r.Estimate, r.RelError, r.Confidence
			out.Cases[i], out.Samples[i], out.Converged[i] = r.Case, r.Samples, r.Converged != nil && *r.Converged
		}
	}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	groups := make(map[string][]int) // warm replica → its structures' indexes
	for i, name := range names {
		owners, start := co.replicaAt(req.Query, name)
		groups[owners[start]] = append(groups[owners[start]], i)
	}
	co.scatters.Add(1)
	for node, idx := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := req
			sub.Structures = make([]string, len(idx))
			for j, i := range idx {
				sub.Structures[j] = names[i]
			}
			vs, resp, err := co.shard(node).CountBatchWith(ctx, sub)
			if err == nil {
				for j, i := range idx {
					put(i, vs[j], slot(resp, j))
				}
				return
			}
			if !failoverable(err) || ctx.Err() != nil {
				errs[idx[0]] = err
				return
			}
			// The shard failed the whole group (draining, refused,
			// dropped): reroute each structure to a surviving replica.
			co.rerouted.Add(1)
			for _, i := range idx {
				v, cresp, cerr := co.countOne(ctx, serve.CountRequest{
					Query: req.Query, Structure: names[i], TimeoutMillis: req.TimeoutMillis,
					Mode: req.Mode, Epsilon: req.Epsilon, Delta: req.Delta,
					MaxSamples: req.MaxSamples, Seed: req.Seed,
				}, node)
				if cerr != nil {
					errs[i] = cerr
					return
				}
				put(i, v, cresp)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, serve.CountBatchResponse{}, err
		}
	}
	return vals, out, nil
}

// mergedStructures builds the cluster's logical structure list: every
// shard's registry fanned in, replicas deduplicated (the ring primary's
// row wins).
// Unreachable shards are skipped — listing degrades, it does not fail.
func (co *Coordinator) mergedStructures(ctx context.Context) []serve.StructureInfo {
	lists, errs := fanOut(co, func(b serve.Backend) ([]serve.StructureInfo, error) { return b.Structures(ctx) })
	byName := make(map[string]serve.StructureInfo)
	fromPrimary := make(map[string]bool)
	for i, infos := range lists {
		if errs[i] != nil {
			continue
		}
		for _, info := range infos {
			primary := co.ring.Owner(info.Name) == co.cfg.Shards[i]
			prev, ok := byName[info.Name]
			// Prefer the ring primary's row; among replicas keep the
			// freshest version (a replica may trail mid-append).
			if !ok || primary || (!fromPrimary[info.Name] && info.Version > prev.Version) {
				byName[info.Name] = info
				fromPrimary[info.Name] = primary
			}
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]serve.StructureInfo, 0, len(names))
	for _, n := range names {
		out = append(out, byName[n])
	}
	return out
}
