package cluster

import (
	"context"
	"fmt"
	"math/big"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// The coordinator's serve.Backend: each operation of the epserved API
// as a composition of the same operation on shard backends.  The wire —
// routes, decoding, validation, deadlines, status encoding — is
// serve.Frontend's; nothing here knows about HTTP beyond the statuses
// an APIError names.

var _ serve.Backend = (*Coordinator)(nil)

// errApproxPartitioned refuses approx mode on partitioned structures.
var errApproxPartitioned = serve.Errorf(http.StatusBadRequest,
	"approx mode is not supported on partitioned structures (inclusion–exclusion recombination needs exact part counts)")

// ---- structures ----

// CreateStructureWith creates a plain structure on its R ring owners,
// or, with partitions > 1, splits it into shard-resident parts.
func (co *Coordinator) CreateStructureWith(ctx context.Context, req serve.CreateStructureRequest) (serve.StructureInfo, error) {
	switch {
	case isPartName(req.Name):
		return serve.StructureInfo{}, serve.Errorf(http.StatusBadRequest,
			"structure name must not contain %q (reserved for partition parts)", partSep)
	case req.Partitions < 0:
		return serve.StructureInfo{}, serve.Errorf(http.StatusBadRequest, "partitions must be ≥ 0")
	case co.partitionedFor(req.Name) != nil:
		return serve.StructureInfo{}, errDuplicate(req.Name)
	case req.Partitions > 1:
		return co.createPartitioned(ctx, req)
	}
	req.Partitions = 0
	return co.createOnOwners(ctx, req)
}

// Structures lists the cluster's logical structures.
func (co *Coordinator) Structures(ctx context.Context) ([]serve.StructureInfo, error) {
	return co.mergedStructures(ctx), nil
}

// Structure fetches one structure's metadata, failing over along its
// replica set.
func (co *Coordinator) Structure(ctx context.Context, name string) (serve.StructureInfo, error) {
	p, err := co.resolve(name)
	if err != nil {
		return serve.StructureInfo{}, err
	}
	if p != nil {
		return p.logicalInfo(), nil
	}
	var info serve.StructureInfo
	err = co.failover(ctx, co.ring.Owners(name, co.cfg.Replicas), 0, "", func(b serve.Backend) (err error) {
		info, err = b.Structure(ctx, name)
		return err
	})
	return info, err
}

// AppendFactsBatch appends to every replica of a plain structure,
// primary first, under one idempotency batch id.
func (co *Coordinator) AppendFactsBatch(ctx context.Context, name, facts, batchID string) (serve.StructureInfo, error) {
	p, err := co.resolve(name)
	if err != nil {
		return serve.StructureInfo{}, err
	}
	if p != nil {
		return serve.StructureInfo{}, serve.Errorf(http.StatusBadRequest,
			"partitioned structure %q is immutable: an append could join Gaifman components across parts and break the disjoint-union invariant the exact recombination relies on", name)
	}
	// The same idempotency id propagates the batch to every replica
	// (and across coordinator retries): the per-structure batch memo on
	// each shard makes the multi-replica apply exactly-once.
	id := batchID
	if id == "" {
		id = co.genBatchID()
	}
	var primary serve.StructureInfo
	for i, node := range co.ring.Owners(name, co.cfg.Replicas) {
		info, err := co.shard(node).AppendFactsBatch(ctx, name, facts, id)
		if err != nil {
			return serve.StructureInfo{}, err
		}
		if i == 0 {
			primary = info
		}
	}
	// Echo what the client sent (empty when the id was coordinator-
	// minted), matching single-node response semantics.
	primary.BatchID = batchID
	return primary, nil
}

// ---- counting ----

// CountWith counts on the structure's warm replica, or recombines a
// partitioned structure's per-part counts.
func (co *Coordinator) CountWith(ctx context.Context, req serve.CountRequest) (*big.Int, serve.CountResponse, error) {
	p, err := co.resolve(req.Structure)
	if err != nil {
		return nil, serve.CountResponse{}, err
	}
	if p == nil {
		return co.countOne(ctx, req, "")
	}
	if req.Mode == "approx" {
		return nil, serve.CountResponse{}, errApproxPartitioned
	}
	start := time.Now()
	v, err := co.partitionedCount(ctx, p, req.Query, req.Engine, req.TimeoutMillis)
	if err != nil {
		return nil, serve.CountResponse{}, err
	}
	return v, serve.CountResponse{Count: v.String(), ElapsedUS: time.Since(start).Microseconds()}, nil
}

// CountBatchWith scatters the plain structures of the batch by warm
// replica and recombines each partitioned one, all concurrently.
func (co *Coordinator) CountBatchWith(ctx context.Context, req serve.CountBatchRequest) ([]*big.Int, serve.CountBatchResponse, error) {
	start := time.Now()
	parts := make([]*partitioned, len(req.Structures))
	for i, name := range req.Structures {
		var err error
		if parts[i], err = co.resolve(name); err != nil {
			return nil, serve.CountBatchResponse{}, err
		}
		if parts[i] != nil && req.Mode == "approx" {
			return nil, serve.CountBatchResponse{}, errApproxPartitioned
		}
	}
	vals, resp, err := co.scatterBatch(ctx, req, parts)
	resp.ElapsedUS = time.Since(start).Microseconds()
	return vals, resp, err
}

// ---- subscriptions ----

// encodeSubID prefixes an upstream subscription id with its shard's
// index ("s2~sub-7"), so later reads route straight back to the shard
// maintaining the count.
func encodeSubID(nodeIdx int, upstream string) string {
	return fmt.Sprintf("s%d~%s", nodeIdx, upstream)
}

// decodeSubID splits a cluster subscription id into the shard holding
// the subscription and its id there.
func (co *Coordinator) decodeSubID(id string) (shard serve.Backend, upstream string, err error) {
	rest, ok := strings.CutPrefix(id, "s")
	if ok {
		if idxStr, up, ok2 := strings.Cut(rest, "~"); ok2 {
			if idx, aerr := strconv.Atoi(idxStr); aerr == nil && idx >= 0 && idx < len(co.cfg.Shards) {
				return co.shards[idx], up, nil
			}
		}
	}
	return nil, "", serve.Errorf(http.StatusNotFound, "unknown subscription %q", id)
}

// SubscribeWith registers the maintained count on the structure's
// primary owner: the count and its delta state stay on one shard.
func (co *Coordinator) SubscribeWith(ctx context.Context, req serve.SubscribeRequest) (serve.SubscriptionInfo, error) {
	p, err := co.resolve(req.Structure)
	if err != nil {
		return serve.SubscriptionInfo{}, err
	}
	if p != nil {
		return serve.SubscriptionInfo{}, serve.Errorf(http.StatusBadRequest,
			"subscriptions are not supported on partitioned structures (they are immutable; a plain /count is already exact)")
	}
	primary := co.ring.Owners(req.Structure, co.cfg.Replicas)[0]
	info, err := co.shard(primary).SubscribeWith(ctx, req)
	if err != nil {
		return serve.SubscriptionInfo{}, err
	}
	info.ID = encodeSubID(co.nodeIdx[primary], info.ID)
	return info, nil
}

// SubscriptionCount reads the maintained count from the shard the id
// names.
func (co *Coordinator) SubscriptionCount(ctx context.Context, id string) (*big.Int, serve.SubscriptionInfo, error) {
	shard, upstream, err := co.decodeSubID(id)
	if err != nil {
		return nil, serve.SubscriptionInfo{}, err
	}
	v, info, err := shard.SubscriptionCount(ctx, upstream)
	info.ID = id
	return v, info, err
}

// Subscriptions merges every shard's subscription list (an unreachable
// shard's rows are missing: the listing degrades, like Structures).
func (co *Coordinator) Subscriptions(ctx context.Context) ([]serve.SubscriptionInfo, error) {
	lists, errs := fanOut(co, func(b serve.Backend) ([]serve.SubscriptionInfo, error) { return b.Subscriptions(ctx) })
	var out []serve.SubscriptionInfo
	for i, subs := range lists {
		if errs[i] != nil {
			continue
		}
		for _, sub := range subs {
			sub.ID = encodeSubID(i, sub.ID)
			out = append(out, sub)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// Unsubscribe removes the subscription from the shard the id names.
func (co *Coordinator) Unsubscribe(ctx context.Context, id string) error {
	shard, upstream, err := co.decodeSubID(id)
	if err != nil {
		return err
	}
	return shard.Unsubscribe(ctx, upstream)
}

// ---- health ----

// Healthz fans the health check out to every shard: the cluster is
// ready only when every shard answers ready; otherwise its state names
// the live fraction.
func (co *Coordinator) Healthz(ctx context.Context) error {
	_, errs := fanOut(co, func(b serve.Backend) (struct{}, error) { return struct{}{}, b.Healthz(ctx) })
	up := 0
	for _, err := range errs {
		if err == nil {
			up++
		}
	}
	if up < len(errs) {
		return serve.Errorf(http.StatusServiceUnavailable, "degraded (%d/%d shards ready)", up, len(errs))
	}
	return nil
}
