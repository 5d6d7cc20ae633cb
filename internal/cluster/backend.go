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

// ---- structures ----

// CreateStructureWith creates a structure on its R ring owners,
// primary first.  The first error aborts the walk; already-created
// replicas remain (a retried create dedups into 409s).
func (co *Coordinator) CreateStructureWith(ctx context.Context, req serve.CreateStructureRequest) (serve.StructureInfo, error) {
	var primary serve.StructureInfo
	for i, node := range co.ring.Owners(req.Name, co.cfg.Replicas) {
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

// Structures lists the cluster's logical structures.
func (co *Coordinator) Structures(ctx context.Context) ([]serve.StructureInfo, error) {
	return co.mergedStructures(ctx), nil
}

// Structure fetches one structure's metadata, failing over along its
// replica set.
func (co *Coordinator) Structure(ctx context.Context, name string) (serve.StructureInfo, error) {
	var info serve.StructureInfo
	err := co.failover(ctx, co.ring.Owners(name, co.cfg.Replicas), 0, "", func(b serve.Backend) (err error) {
		info, err = b.Structure(ctx, name)
		return err
	})
	return info, err
}

// AppendFactsBatch appends to every replica of a structure,
// primary first, under one idempotency batch id.
func (co *Coordinator) AppendFactsBatch(ctx context.Context, name, facts, batchID string) (serve.StructureInfo, error) {
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

// CountWith counts on the structure's warm replica.
func (co *Coordinator) CountWith(ctx context.Context, req serve.CountRequest) (*big.Int, serve.CountResponse, error) {
	return co.countOne(ctx, req, "")
}

// CountBatchWith scatters the batch by warm replica.
func (co *Coordinator) CountBatchWith(ctx context.Context, req serve.CountBatchRequest) ([]*big.Int, serve.CountBatchResponse, error) {
	start := time.Now()
	vals, resp, err := co.scatterBatch(ctx, req)
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
