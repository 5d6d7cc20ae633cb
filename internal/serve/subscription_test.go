package serve

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/parser"
)

// The subscription lifecycle over the wire: register, lazy first read,
// maintained read after an append, cache-hit read after a duplicate
// append, list, unsubscribe.
func TestSubscriptionLifecycleHTTP(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	if _, err := c.CreateStructure(ctx, "g",
		"universe a, b, c.\nE(a,b). E(b,c). E(c,a).", nil); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)", "g")
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Count != "" {
		t.Fatalf("registration = %+v, want an id and no maintained count yet", sub)
	}

	v1, info1, err := c.SubscriptionCount(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("initial maintained count = %v, want 3", v1)
	}

	// An effective append must advance the maintained count and its
	// version stamp.
	appendInfo, err := c.AppendFacts(ctx, "g", "E(a,c). E(c,b). E(b,a).")
	if err != nil {
		t.Fatal(err)
	}
	if appendInfo.Inserted != 3 {
		t.Fatalf("append inserted = %d, want 3", appendInfo.Inserted)
	}
	v2, info2, err := c.SubscriptionCount(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("maintained count after append = %v, want 6", v2)
	}
	if info2.Version <= info1.Version {
		t.Fatalf("maintained version did not advance: %d -> %d", info1.Version, info2.Version)
	}

	// A fully-duplicate batch inserts nothing, keeps the version, and
	// the next read is a pure cache hit at the same version.
	dupInfo, err := c.AppendFacts(ctx, "g", "E(a,b). E(b,c).")
	if err != nil {
		t.Fatal(err)
	}
	if dupInfo.Inserted != 0 || dupInfo.Version != info2.Version {
		t.Fatalf("duplicate batch: inserted %d at version %d, want 0 at version %d",
			dupInfo.Inserted, dupInfo.Version, info2.Version)
	}
	v3, info3, err := c.SubscriptionCount(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Cmp(v2) != 0 || info3.Version != info2.Version {
		t.Fatalf("read after duplicate batch = %v@%d, want %v@%d", v3, info3.Version, v2, info2.Version)
	}

	subs, err := c.Subscriptions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].ID != sub.ID || subs[0].Count != v3.String() {
		t.Fatalf("subscription listing = %+v", subs)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions != 1 {
		t.Fatalf("stats subscriptions = %d, want 1", st.Subscriptions)
	}
	if err := c.Unsubscribe(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubscriptionCount(ctx, sub.ID); err == nil {
		t.Fatal("read of an unsubscribed id succeeded")
	}
	if err := c.Unsubscribe(ctx, sub.ID); err == nil {
		t.Fatal("double unsubscribe succeeded")
	}
}

// Delta-maintained subscription counts must equal full recounts of the
// replayed append history at every observed version, for several
// subscribers of one query, with readers racing the writer (run
// under -race this is the incremental-maintenance safety net the serving
// layer relies on).  The batches are a few tuples each, so the engine's
// default advance gate sends every one down the delta path.  Two
// streams: a sparse one from six vertices, and a dense one from 64
// (density 0.3) whose delta terms read the store's rows while the writer
// sets their bits, the universe growing past 64 so the rows are re-laid
// out at a wider stride between reads.
func TestSubscriptionDeltaDifferential(t *testing.T) {
	const query = "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"
	const subscribers = 3
	for _, tc := range []struct {
		name   string
		nVerts int
		edges  int
		union  bool // replay oracle: union enumeration, else brute force
	}{
		{"sparse", 6, 3, false},
		{"dense", 64, 64 * 64 * 3 / 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			subscriptionDeltaDifferential(t, query, subscribers, tc.nVerts, tc.edges, tc.union)
		})
	}
}

func subscriptionDeltaDifferential(t *testing.T, query string, subscribers int, nVerts, edges int, union bool) {
	// A randomized append stream over a growing vertex pool; duplicate
	// edges occur naturally and whole-batch duplicates keep the version.
	rng := rand.New(rand.NewSource(20260807))
	var ib strings.Builder
	ib.WriteString("universe v0")
	for v := 1; v < nVerts; v++ {
		fmt.Fprintf(&ib, ", v%d", v)
	}
	ib.WriteString(".\nE(v0,v1). E(v1,v2). E(v2,v0).\n")
	for k := 3; k < edges; k++ {
		fmt.Fprintf(&ib, "E(v%d,v%d). ", rng.Intn(nVerts), rng.Intn(nVerts))
	}
	initial := ib.String()
	const nAppends = 24
	batches := make([]string, nAppends)
	for i := range batches {
		var sb strings.Builder
		if i%5 == 4 {
			sb.WriteString(fmt.Sprintf("E(v%d,v%d). ", nVerts, rng.Intn(nVerts)))
			nVerts++
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			sb.WriteString(fmt.Sprintf("E(v%d,v%d). ", rng.Intn(nVerts), rng.Intn(nVerts)))
		}
		batches[i] = sb.String()
	}

	reg := NewRegistry(0, 1)
	if _, err := reg.CreateStructure("g", initial, nil); err != nil {
		t.Fatal(err)
	}
	subIDs := make([]string, subscribers)
	for i := range subIDs {
		sub, err := reg.Subscribe(query, "g", "")
		if err != nil {
			t.Fatal(err)
		}
		subIDs[i] = sub.ID
	}
	e, err := reg.entry("g")
	if err != nil {
		t.Fatal(err)
	}

	type observation struct {
		sub     int
		version uint64
		count   *big.Int
	}
	var (
		mu          sync.Mutex
		checkpoints = map[uint64]int{e.b.Version(): 0} // version → latest prefix
		obs         []observation
	)
	advBefore := engine.DeltaStats().Advances

	read := func(i int) bool {
		info, err := reg.SubscriptionCount(context.Background(), subIDs[i])
		if err != nil {
			t.Error(err)
			return false
		}
		count, ok := new(big.Int).SetString(info.Count, 10)
		if !ok {
			t.Errorf("malformed maintained count %q", info.Count)
			return false
		}
		mu.Lock()
		obs = append(obs, observation{sub: i, version: info.Version, count: count})
		mu.Unlock()
		return true
	}
	// Materialize every maintained count at the base version first, so
	// the appends below genuinely advance warm state rather than trigger
	// first-time full counts.
	for i := range subIDs {
		if !read(i) {
			return
		}
	}

	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: one atomic batch at a time
		defer wg.Done()
		defer close(writerDone)
		for i, facts := range batches {
			info, err := reg.AppendFacts("g", facts)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			checkpoints[info.Version] = i + 1
			mu.Unlock()
		}
	}()
	for i := range subIDs {
		wg.Add(1)
		go func(i int) { // reader: maintained counts racing the writer
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					read(i) // one guaranteed read at the final version
					return
				default:
					if !read(i) {
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Sequential replay: rebuild each observed version's structure from
	// the batch prefix and recount from scratch.  Equal versions always
	// denote equal fact sets (ineffective batches do not bump), so the
	// latest prefix per version is a valid witness.
	oracle, err := core.NewCounter(parser.MustQuery(query), nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]*big.Int)
	for _, o := range obs {
		w, ok := want[o.version]
		if !ok {
			prefix, known := checkpoints[o.version]
			if !known {
				t.Fatalf("observed version %d matches no append boundary — a torn batch", o.version)
			}
			src := initial
			for i := 0; i < prefix; i++ {
				src += batches[i] + "\n"
			}
			b, err := parser.ParseStructure(src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if union {
				var comp *eptrans.Compiled
				if comp, err = eptrans.Compile(oracle.Query(), oracle.Signature()); err == nil {
					w, err = count.EPUnion(comp.Disjuncts, b)
				}
			} else {
				w, err = count.EPDirect(oracle.Query(), b)
			}
			if err != nil {
				t.Fatal(err)
			}
			want[o.version] = w
		}
		if o.count.Cmp(w) != 0 {
			t.Fatalf("subscriber %d at version %d: maintained %v != sequential replay %v",
				o.sub, o.version, o.count, w)
		}
	}
	if engine.DeltaStats().Advances == advBefore {
		t.Fatal("subscription stream never exercised the delta advance path")
	}
}
