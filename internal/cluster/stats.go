package cluster

import (
	"context"
	"time"

	"repro/internal/serve"
)

// Stats is the aggregated cluster /stats view: the shards'
// StatsResponses fan in concurrently and merge into one StatsResponse
// of the single-node shape — admission counters, query memo hits,
// delta counters and durability counters summed, query rows merged by
// query text, the structure list the logical cluster view — with
// the per-shard breakdown and router telemetry under Cluster.  A
// dashboard written against one epserved node reads a whole cluster
// unchanged.
func (co *Coordinator) Stats(ctx context.Context) (serve.StatsResponse, error) {
	stats, errs := fanOut(co, func(b serve.Backend) (serve.StatsResponse, error) { return b.Stats(ctx) })

	merged := serve.StatsResponse{UptimeSeconds: time.Since(co.started).Seconds()}
	cluster := &serve.ClusterStats{
		Replicas:       co.cfg.Replicas,
		VirtualNodes:   co.ring.VNodes(),
		ScatterGathers: co.scatters.Load(),
		Failovers:      co.failovers.Load(),
		Rerouted:       co.rerouted.Load(),
	}

	queryAt := make(map[string]int)
	for i, node := range co.cfg.Shards {
		ss := serve.ShardStats{Node: node}
		if errs[i] != nil {
			cluster.Shards = append(cluster.Shards, ss)
			continue
		}
		st := stats[i]
		ss.Healthy = true
		ss.Structures = len(st.Structures)
		ss.Admission = st.Admission
		ss.Delta = st.Delta
		ss.Subscriptions = st.Subscriptions
		for _, q := range st.Queries {
			ss.CountCacheHits += q.CountCacheHits
			ss.CountCacheMisses += q.CountCacheMisses
			if at, ok := queryAt[q.Query]; ok {
				m := &merged.Queries[at]
				m.Plans += q.Plans
				m.SharedPlans += q.SharedPlans
				m.CountCacheHits += q.CountCacheHits
				m.CountCacheMisses += q.CountCacheMisses
			} else {
				queryAt[q.Query] = len(merged.Queries)
				merged.Queries = append(merged.Queries, q)
			}
		}
		cluster.Shards = append(cluster.Shards, ss)

		merged.Admission.InFlight += st.Admission.InFlight
		merged.Admission.MaxInFlight += st.Admission.MaxInFlight
		merged.Admission.Admitted += st.Admission.Admitted
		merged.Admission.Rejected += st.Admission.Rejected
		merged.Admission.Deadline += st.Admission.Deadline
		merged.Workers += st.Workers
		merged.Sessions.Sessions += st.Sessions.Sessions
		merged.Sessions.Cap += st.Sessions.Cap
		merged.Sessions.Evictions += st.Sessions.Evictions
		merged.Caches.Counters = merged.Caches.Counters.Plus(st.Caches.Counters)
		merged.Caches.Plans = merged.Caches.Plans.Plus(st.Caches.Plans)
		merged.Caches.Sessions = merged.Caches.Sessions.Plus(st.Caches.Sessions)
		merged.Delta.Advances += st.Delta.Advances
		merged.Delta.FullRecounts += st.Delta.FullRecounts
		merged.Subscriptions += st.Subscriptions
		if st.Durability.Enabled {
			merged.Durability.Enabled = true
			if merged.Durability.Fsync == "" {
				merged.Durability.Fsync = st.Durability.Fsync
			}
			merged.Durability.WALBytes += st.Durability.WALBytes
			merged.Durability.Appends += st.Durability.Appends
			merged.Durability.Creates += st.Durability.Creates
			merged.Durability.Compactions += st.Durability.Compactions
			merged.Durability.Syncs += st.Durability.Syncs
			merged.Durability.RecoveredStructures += st.Durability.RecoveredStructures
			merged.Durability.RecoveredSnapshots += st.Durability.RecoveredSnapshots
			merged.Durability.RecoveredRecords += st.Durability.RecoveredRecords
			merged.Durability.TruncatedTail = merged.Durability.TruncatedTail || st.Durability.TruncatedTail
		}
	}
	merged.Structures = co.mergedStructures(ctx)
	merged.Cluster = cluster
	return merged, nil
}
