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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/structure"
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
	// MaxPartitions caps partitioned creates (≤ 0 = 64).
	MaxPartitions int
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
	if c.MaxPartitions <= 0 {
		c.MaxPartitions = 64
	}
	return c
}

// partSep separates a logical partitioned structure's name from its
// part index in the shard-resident part names ("users@p3").  Client-
// facing names must not contain it.
const partSep = "@p"

// partitioned is one logical partitioned structure the coordinator
// tracks: its part names (shard residency follows the ring) and the
// immutable logical metadata.
type partitioned struct {
	name   string
	parts  []string
	size   int
	tuples int
	sig    *structure.Signature
}

// planKey caches recombination plans per (query, signature).
type planKey struct {
	query string
	sig   string
}

// Coordinator is the cluster router: a serve.Backend composed of the
// shard fleet's Backends — consistent-hash routing with replication for
// plain structures, exact inclusion–exclusion recombination for
// partitioned ones.  Served through a serve.Frontend it speaks the same
// HTTP/JSON API as a single epserved node (serve.Client works against
// it unchanged).  Create with New; mount Handler, or hand the
// coordinator to serve.NewFrontend for a managed listener.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	shards  []serve.Backend // aligned with cfg.Shards
	nodeIdx map[string]int
	started time.Time

	mu    sync.RWMutex
	parts map[string]*partitioned
	plans map[planKey]*partPlan

	scatters  atomic.Uint64
	failovers atomic.Uint64
	rerouted  atomic.Uint64

	batchPrefix string
	batchSeq    atomic.Uint64
}

// planCacheCap bounds the recombination-plan cache; reaching it wipes
// the cache wholesale (a memo: entries rebuild on demand).
const planCacheCap = 256

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
		parts:       make(map[string]*partitioned),
		plans:       make(map[planKey]*partPlan),
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

// partitionedFor resolves a logical partitioned structure, nil when
// the name is not partitioned.
func (co *Coordinator) partitionedFor(name string) *partitioned {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.parts[name]
}

// resolve is the name-resolution step every operation on an existing
// structure starts from.  A client-facing name is partitioned (p is its
// logical structure), plain (p is nil: the ring places it), or reserved:
// name@pN belongs to the parts of partitioned structures, which no
// client may address, so to clients there is no such structure.
func (co *Coordinator) resolve(name string) (p *partitioned, err error) {
	if p = co.partitionedFor(name); p == nil && isPartName(name) {
		return nil, serve.Errorf(http.StatusNotFound, "unknown structure %q", name)
	}
	return p, nil
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

// scatterBatch fans one query over many structures.  The plain ones
// group by their warm replica shard, each group runs as one upstream
// batch count; each partitioned one (parts[i] non-nil; parts itself may
// be nil) recombines its own scatter; all run concurrently, and results
// reassemble in request order.  req carries the query, engine, timeout,
// and the approx-mode knobs applied to every structure.  A shard-level
// failoverable failure (503 from a node draining, a dropped connection)
// does not fail the request: that group's structures reroute
// individually to surviving replicas.
func (co *Coordinator) scatterBatch(ctx context.Context, req serve.CountBatchRequest, parts []*partitioned) ([]*big.Int, serve.CountBatchResponse, error) {
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
		if parts != nil && parts[i] != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := co.partitionedCount(ctx, parts[i], req.Query, req.Engine, req.TimeoutMillis)
				if errs[i] = err; err == nil {
					put(i, v, serve.CountResponse{Count: v.String()})
				}
			}()
			continue
		}
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
					Query: req.Query, Structure: names[i], Engine: req.Engine, TimeoutMillis: req.TimeoutMillis,
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

// ---- partitioned structures ----

// planFor resolves (building and caching on first use) the
// recombination plan of a query over a partitioned structure's
// signature.
func (co *Coordinator) planFor(query string, p *partitioned) (*partPlan, error) {
	key := planKey{query: query, sig: p.sig.String()}
	co.mu.RLock()
	pl := co.plans[key]
	co.mu.RUnlock()
	if pl != nil {
		return pl, nil
	}
	pl, err := buildPartitionPlan(query, p.sig)
	if err != nil {
		// A malformed query or an unknown relation: the client's fault,
		// as on a single node.
		return nil, serve.WithStatus(http.StatusBadRequest, err)
	}
	co.mu.Lock()
	if prev := co.plans[key]; prev != nil {
		pl = prev
	} else {
		if len(co.plans) >= planCacheCap {
			co.plans = make(map[planKey]*partPlan, planCacheCap)
		}
		co.plans[key] = pl
	}
	co.mu.Unlock()
	return pl, nil
}

// partitionedCount evaluates a query against a partitioned structure:
// every component query of the recombination plan scatters over all
// parts (riding the same grouped scatter-gather and failover as plain
// batches), per-part counts sum per component, and the plan reassembles
// the exact logical count.
func (co *Coordinator) partitionedCount(ctx context.Context, p *partitioned, query, engineName string, timeoutMillis int64) (*big.Int, error) {
	pl, err := co.planFor(query, p)
	if err != nil {
		return nil, err
	}
	totals := make([]*big.Int, len(pl.comps))
	errs := make([]error, len(pl.comps))
	var wg sync.WaitGroup
	for ci := range pl.comps {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			vals, _, err := co.scatterBatch(ctx, serve.CountBatchRequest{
				Query: pl.comps[ci].query, Structures: p.parts, Engine: engineName, TimeoutMillis: timeoutMillis,
			}, nil)
			if err != nil {
				errs[ci] = err
				return
			}
			sum := new(big.Int)
			for _, v := range vals {
				sum.Add(sum, v)
			}
			totals[ci] = sum
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pl.combine(totals, p.size), nil
}

// createOnOwners creates one (part or plain) structure on its R ring
// owners, primary first.  The first error aborts the walk; already-
// created replicas remain (a retried create dedups into 409s, which
// the caller may treat as success for parts).
func (co *Coordinator) createOnOwners(ctx context.Context, req serve.CreateStructureRequest) (serve.StructureInfo, error) {
	owners := co.ring.Owners(req.Name, co.cfg.Replicas)
	var primary serve.StructureInfo
	for i, node := range owners {
		info, err := co.shard(node).CreateStructureWith(ctx, req)
		if err != nil {
			return serve.StructureInfo{}, err
		}
		if i == 0 {
			primary = info
		}
	}
	return primary, nil
}

// createPartitioned parses the structure on the coordinator, splits it
// into Gaifman-component parts, creates every part (with the explicit
// signature, so empty parts stay well-typed) on its ring owners, and
// registers the logical structure.  Partitioned structures are
// immutable after creation: appends could join components across
// parts, which would break the disjoint-union invariant the exact
// recombination rests on.
func (co *Coordinator) createPartitioned(ctx context.Context, req serve.CreateStructureRequest) (serve.StructureInfo, error) {
	// What the coordinator finds wrong with the request itself is the
	// client's fault; a shard's refusal or a transport failure passes as is.
	bad := func(err error) (serve.StructureInfo, error) {
		return serve.StructureInfo{}, serve.WithStatus(http.StatusBadRequest, err)
	}
	if req.Partitions > co.cfg.MaxPartitions {
		return bad(fmt.Errorf("cluster: %d partitions exceed the cap of %d", req.Partitions, co.cfg.MaxPartitions))
	}
	b, err := serve.ParseFacts(req.Facts, req.Signature)
	if err != nil {
		return bad(err)
	}
	spec := make([]serve.RelSpec, 0, len(b.Signature().Rels()))
	for _, r := range b.Signature().Rels() {
		spec = append(spec, serve.RelSpec{Name: r.Name, Arity: r.Arity})
	}
	if b.Size() == 0 {
		return bad(fmt.Errorf("cluster: an empty structure cannot be partitioned"))
	}
	bins := partitionElems(b, req.Partitions)
	p := &partitioned{name: req.Name, size: b.Size(), tuples: b.NumTuples(), sig: b.Signature()}
	for i, bin := range bins {
		// Fewer Gaifman components than requested partitions leaves some
		// bins empty; an empty part would be uncountable (the engine
		// refuses empty universes), so it simply is not created —
		// `partitions` is a ceiling, not a promise.
		if len(bin) == 0 {
			continue
		}
		part, _ := b.Induced(bin)
		facts, err := part.FactsString()
		if err != nil {
			return bad(err)
		}
		partName := fmt.Sprintf("%s%s%d", req.Name, partSep, i)
		if _, err := co.createOnOwners(ctx, serve.CreateStructureRequest{Name: partName, Facts: facts, Signature: spec}); err != nil {
			return serve.StructureInfo{}, err
		}
		p.parts = append(p.parts, partName)
	}
	co.mu.Lock()
	if _, dup := co.parts[req.Name]; dup {
		co.mu.Unlock()
		return serve.StructureInfo{}, errDuplicate(req.Name)
	}
	co.parts[req.Name] = p
	co.mu.Unlock()
	return p.logicalInfo(), nil
}

// errDuplicate is a create's name collision with a partitioned
// structure, worded as a shard words its own.
func errDuplicate(name string) error {
	return serve.Errorf(http.StatusConflict, "structure %q already exists", name)
}

// logicalInfo is the wire metadata of a partitioned structure (version
// 0: partitioned structures are immutable).
func (p *partitioned) logicalInfo() serve.StructureInfo {
	return serve.StructureInfo{Name: p.name, Size: p.size, Tuples: p.tuples}
}

// isPartName reports whether a shard-resident structure name is an
// internal partition part (hidden from cluster listings).
func isPartName(name string) bool { return strings.Contains(name, partSep) }

// mergedStructures builds the cluster's logical structure list: every
// shard's registry fanned in, part names hidden, replicas deduplicated
// (the ring primary's row wins), partitioned logical rows appended.
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
			if isPartName(info.Name) {
				continue
			}
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
	co.mu.RLock()
	for name, p := range co.parts {
		byName[name] = p.logicalInfo()
	}
	co.mu.RUnlock()
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
