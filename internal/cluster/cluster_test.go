package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

// fleet is N in-process shard servers behind real HTTP listeners.  Each
// shard's handler is wrapped with a drain switch: while set, counting
// endpoints answer 503 + Retry-After — the wire behavior of a node
// refusing work mid-graceful-shutdown — without taking the shard down.
type fleet struct {
	servers []*serve.Server
	ts      []*httptest.Server
	urls    []string
	drain   []*atomic.Bool
}

func startFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{})
		flag := &atomic.Bool{}
		inner := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if flag.Load() && (r.URL.Path == "/count" || r.URL.Path == "/countBatch") {
				w.Header().Set("Retry-After", "1")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, `{"error":"shutting down"}`)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, srv)
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
		f.drain = append(f.drain, flag)
	}
	return f
}

// startCoordinator builds a coordinator over the fleet and serves it
// over HTTP, returning the coordinator, a client speaking to it, and
// the coordinator's URL.  Retry is a single attempt so failover paths
// are exercised directly rather than masked by same-shard retries.
func startCoordinator(t *testing.T, f *fleet, replicas int) (*Coordinator, *serve.Client) {
	t.Helper()
	co, err := New(Config{
		Shards:   f.urls,
		Replicas: replicas,
		VNodes:   32,
		Retry:    serve.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return co, serve.NewClient(ts.URL, nil)
}

// TestClusterDifferentialRandomized drives a 3-shard, 2-replica cluster
// and a plain single node through the same randomized interleaving of
// creates, appends, counts, batch counts and subscription reads, and
// requires every routed response — count AND version — to equal the
// single node's.  Run under -race this also hammers the coordinator's
// concurrent scatter machinery.
func TestClusterDifferentialRandomized(t *testing.T) {
	f := startFleet(t, 3)
	_, cc := startCoordinator(t, f, 2)

	ref := serve.New(serve.Config{})
	rts := httptest.NewServer(ref.Handler())
	t.Cleanup(rts.Close)
	rc := serve.NewClient(rts.URL, nil)

	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	var names []string
	for i := 0; i < 5; i++ {
		b := workload.RandomStructure(workload.EdgeSig(), 8, 0.2, int64(i+1))
		facts, err := b.FactsString()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("g%d", i)
		ci, err := cc.CreateStructure(ctx, name, facts, nil)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := rc.CreateStructure(ctx, name, facts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ci != ri {
			t.Fatalf("create %s: cluster %+v, single node %+v", name, ci, ri)
		}
		names = append(names, name)
	}

	queries := []string{
		workload.FreePathQuery(2).String(),
		workload.CliqueQuery(3).String(),
		workload.PathQuery(3).String(),
		"mix(x,y) := E(x,y) | E(x,x)",
	}

	type subPair struct{ clusterID, refID string }
	var subs []subPair
	batchSeq := 0
	for op := 0; op < 60; op++ {
		name := names[rng.Intn(len(names))]
		query := queries[rng.Intn(len(queries))]
		switch rng.Intn(5) {
		case 0: // append the same batch to both
			batchSeq++
			facts := fmt.Sprintf("E(e%d,e%d). E(e%d,x%d).",
				rng.Intn(8), rng.Intn(8), rng.Intn(8), batchSeq)
			id := fmt.Sprintf("batch-%d", batchSeq)
			ci, err := cc.AppendFactsBatch(ctx, name, facts, id)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := rc.AppendFactsBatch(ctx, name, facts, id)
			if err != nil {
				t.Fatal(err)
			}
			if ci != ri {
				t.Fatalf("append %s: cluster %+v, single node %+v", name, ci, ri)
			}
		case 1: // single count
			cv, cresp, err := cc.Count(ctx, query, name)
			if err != nil {
				t.Fatal(err)
			}
			rv, rresp, err := rc.Count(ctx, query, name)
			if err != nil {
				t.Fatal(err)
			}
			if cv.Cmp(rv) != 0 || cresp.Version != rresp.Version {
				t.Fatalf("count %q on %s: cluster (%v, v%d), single node (%v, v%d)",
					query, name, cv, cresp.Version, rv, rresp.Version)
			}
		case 2: // scatter-gather batch over a random subset
			subset := append([]string(nil), names...)
			rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
			subset = subset[:1+rng.Intn(len(subset))]
			cvs, cresp, err := cc.CountBatch(ctx, query, subset)
			if err != nil {
				t.Fatal(err)
			}
			rvs, rresp, err := rc.CountBatch(ctx, query, subset)
			if err != nil {
				t.Fatal(err)
			}
			for i := range subset {
				if cvs[i].Cmp(rvs[i]) != 0 || cresp.Versions[i] != rresp.Versions[i] {
					t.Fatalf("batch %q on %v [%d]: cluster (%v, v%d), single node (%v, v%d)",
						query, subset, i, cvs[i], cresp.Versions[i], rvs[i], rresp.Versions[i])
				}
			}
		case 3: // register a subscription on both
			if len(subs) >= 4 {
				continue
			}
			ci, err := cc.Subscribe(ctx, query, name)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := rc.Subscribe(ctx, query, name)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, subPair{clusterID: ci.ID, refID: ri.ID})
		case 4: // read a subscription's maintained count
			if len(subs) == 0 {
				continue
			}
			p := subs[rng.Intn(len(subs))]
			cv, cinfo, err := cc.SubscriptionCount(ctx, p.clusterID)
			if err != nil {
				t.Fatal(err)
			}
			rv, rinfo, err := rc.SubscriptionCount(ctx, p.refID)
			if err != nil {
				t.Fatal(err)
			}
			if cv.Cmp(rv) != 0 || cinfo.Version != rinfo.Version {
				t.Fatalf("subscription %s: cluster (%v, v%d), single node (%v, v%d)",
					p.clusterID, cv, cinfo.Version, rv, rinfo.Version)
			}
		}
	}

	// The merged structure listing must agree with the single node's.
	cinfos, err := cc.Structures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rinfos, err := rc.Structures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cinfos) != len(rinfos) {
		t.Fatalf("cluster lists %d structures, single node %d", len(cinfos), len(rinfos))
	}
	sort.Slice(cinfos, func(i, j int) bool { return cinfos[i].Name < cinfos[j].Name })
	sort.Slice(rinfos, func(i, j int) bool { return rinfos[i].Name < rinfos[j].Name })
	for i := range cinfos {
		if cinfos[i] != rinfos[i] {
			t.Fatalf("structure listing [%d]: cluster %+v, single node %+v", i, cinfos[i], rinfos[i])
		}
	}

	// Concurrent phase: hammer the coordinator's scatter paths from
	// several goroutines against a now-static cluster (meaningful under
	// -race for the router's shared maps and counters).
	want := make(map[string]map[string]string)
	for _, q := range queries {
		want[q] = map[string]string{}
		for _, n := range names {
			v, _, err := rc.Count(ctx, q, n)
			if err != nil {
				t.Fatal(err)
			}
			want[q][n] = v.String()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 15; i++ {
				q := queries[grng.Intn(len(queries))]
				if grng.Intn(2) == 0 {
					n := names[grng.Intn(len(names))]
					v, _, err := cc.Count(ctx, q, n)
					if err != nil {
						t.Error(err)
						return
					}
					if v.String() != want[q][n] {
						t.Errorf("concurrent count %q on %s = %v, want %s", q, n, v, want[q][n])
						return
					}
				} else {
					vs, _, err := cc.CountBatch(ctx, q, names)
					if err != nil {
						t.Error(err)
						return
					}
					for j, n := range names {
						if vs[j].String() != want[q][n] {
							t.Errorf("concurrent batch %q on %s = %v, want %s", q, n, vs[j], want[q][n])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCountBatchReroutesDrainingShard is the failover regression test
// for the graceful-shutdown window: a shard that starts answering its
// counting endpoints with 503 + Retry-After (exactly what a node does
// while serve.Registry.Close drains) must not fail a scatter-gather
// /countBatch — the coordinator reroutes that shard's whole structure
// group to live replicas and the batch succeeds with correct counts.
func TestCountBatchReroutesDrainingShard(t *testing.T) {
	f := startFleet(t, 3)
	co, cc := startCoordinator(t, f, 2)

	ctx := context.Background()
	query := workload.FreePathQuery(2).String()
	var names []string
	for i := 0; i < 9; i++ {
		b := workload.RandomStructure(workload.EdgeSig(), 7, 0.25, int64(40+i))
		facts, err := b.FactsString()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("s%d", i)
		if _, err := cc.CreateStructure(ctx, name, facts, nil); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	before, _, err := cc.CountBatch(ctx, query, names)
	if err != nil {
		t.Fatal(err)
	}

	// Drain the shard the scatter would route structure 0's group to,
	// so at least one group is guaranteed to hit the 503 path.
	owners, start := co.replicaAt(query, names[0])
	victim := owners[start]
	for i, url := range f.urls {
		if url == victim {
			f.drain[i].Store(true)
			defer f.drain[i].Store(false)
		}
	}

	after, _, err := cc.CountBatch(ctx, query, names)
	if err != nil {
		t.Fatalf("countBatch with one shard draining: %v", err)
	}
	for i := range names {
		if after[i].Cmp(before[i]) != 0 {
			t.Fatalf("rerouted count for %s = %v, want %v", names[i], after[i], before[i])
		}
	}
	stats, err := cc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster == nil || stats.Cluster.Rerouted == 0 {
		t.Fatalf("expected a rerouted group in cluster stats, got %+v", stats.Cluster)
	}
}

// TestFailoverOnDeadShard kills a shard outright (connection refused)
// and checks reads fail over to the surviving replica while /healthz
// degrades to 503.
func TestFailoverOnDeadShard(t *testing.T) {
	f := startFleet(t, 2)
	co, cc := startCoordinator(t, f, 2)
	ctx := context.Background()

	b := workload.RandomStructure(workload.EdgeSig(), 8, 0.25, 99)
	facts, err := b.FactsString()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.CreateStructure(ctx, "g", facts, nil); err != nil {
		t.Fatal(err)
	}
	query := workload.FreePathQuery(2).String()
	v0, _, err := cc.Count(ctx, query, "g")
	if err != nil {
		t.Fatal(err)
	}

	// Kill the replica this query's reads are pinned to, so the next
	// count must fail over.
	owners, start := co.replicaAt(query, "g")
	for i, url := range f.urls {
		if url == owners[start] {
			f.ts[i].Close()
		}
	}

	v1, _, err := cc.Count(ctx, query, "g")
	if err != nil {
		t.Fatalf("count after shard death: %v", err)
	}
	if v1.Cmp(v0) != 0 {
		t.Fatalf("failover count = %v, want %v", v1, v0)
	}
	if _, err := cc.Structure(ctx, "g"); err != nil {
		t.Fatalf("structure metadata after shard death: %v", err)
	}
	if err := cc.Healthz(ctx); err == nil {
		t.Fatal("healthz reported ready with a dead shard")
	}
	stats, err := cc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster == nil || stats.Cluster.Failovers == 0 {
		t.Fatalf("expected failovers in cluster stats, got %+v", stats.Cluster)
	}
	healthy := 0
	for _, sh := range stats.Cluster.Shards {
		if sh.Healthy {
			healthy++
		}
	}
	if healthy != 1 {
		t.Fatalf("stats report %d healthy shards, want 1", healthy)
	}
	if c := stats.Caches; c.Counters.Len < 1 || c.Sessions.Len < 1 {
		t.Fatalf("merged caches block lost the surviving shard's caches: %+v", c)
	}
}

// TestSubscriptionRoutingLifecycle walks a subscription end to end
// through the coordinator: register, list (shard-prefixed id), read
// across appends, unsubscribe.
func TestSubscriptionRoutingLifecycle(t *testing.T) {
	f := startFleet(t, 3)
	_, cc := startCoordinator(t, f, 2)
	ctx := context.Background()

	b := workload.RandomStructure(workload.EdgeSig(), 7, 0.2, 77)
	facts, err := b.FactsString()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.CreateStructure(ctx, "g", facts, nil); err != nil {
		t.Fatal(err)
	}
	query := workload.FreePathQuery(2).String()
	sub, err := cc.Subscribe(ctx, query, "g")
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := cc.SubscriptionCount(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := cc.Count(ctx, query, "g")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cmp(direct) != 0 {
		t.Fatalf("subscription count %v, direct count %v", v1, direct)
	}
	if _, err := cc.AppendFactsBatch(ctx, "g", "E(e0,e6). E(e6,e1).", "sub-batch-1"); err != nil {
		t.Fatal(err)
	}
	v2, _, err := cc.SubscriptionCount(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct2, _, err := cc.Count(ctx, query, "g")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Cmp(direct2) != 0 {
		t.Fatalf("post-append subscription count %v, direct count %v", v2, direct2)
	}
	subs, err := cc.Subscriptions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].ID != sub.ID {
		t.Fatalf("subscription listing %+v, want one entry with id %s", subs, sub.ID)
	}
	if err := cc.Unsubscribe(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cc.SubscriptionCount(ctx, sub.ID); err == nil {
		t.Fatal("read of removed subscription succeeded")
	}
	if _, _, err := cc.SubscriptionCount(ctx, "nonsense"); err == nil {
		t.Fatal("read of malformed subscription id succeeded")
	}
}
