package serve

import (
	"context"
	"fmt"
	"math/big"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/structure"
	"repro/internal/workload"
)

// newTestServer spins up a Server behind httptest and returns it with a
// typed client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL, ts.Client())
}

// factsText renders a structure in the parseable fact syntax.
func factsText(t *testing.T, b *structure.Structure) string {
	t.Helper()
	facts, err := b.FactsString()
	if err != nil {
		t.Fatal(err)
	}
	return facts
}

const triangleQuery = "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"

func TestIngestCountAppendRecount(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()

	info, err := cl.CreateStructure(ctx, "g", "E(a,b). E(b,c). E(c,a).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 3 || info.Tuples != 3 {
		t.Fatalf("ingest info = %+v", info)
	}

	v, resp, err := cl.Count(ctx, triangleQuery, "g")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64() != 3 {
		t.Fatalf("count = %v, want 3 (the three rotations)", v)
	}

	// Mutation: close the reverse cycle, creating three more directed
	// triangles.  The recount must see the new version — this is the
	// mutation → session-invalidation → recount path.
	info2, err := cl.AppendFacts(ctx, "g", "E(b,a). E(c,b). E(a,c).")
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version <= resp.Version {
		t.Fatalf("append did not advance version: %d -> %d", resp.Version, info2.Version)
	}
	v2, resp2, err := cl.Count(ctx, triangleQuery, "g")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Int64() != 6 {
		t.Fatalf("recount = %v, want 6", v2)
	}
	if resp2.Version != info2.Version {
		t.Fatalf("recount executed against version %d, want %d", resp2.Version, info2.Version)
	}

	// Appending a duplicate fact is a no-op for the count.
	if _, err := cl.AppendFacts(ctx, "g", "E(a,b)."); err != nil {
		t.Fatal(err)
	}
	v3, _, err := cl.Count(ctx, triangleQuery, "g")
	if err != nil {
		t.Fatal(err)
	}
	if v3.Cmp(v2) != 0 {
		t.Fatalf("duplicate append changed count: %v -> %v", v2, v3)
	}
}

// TestPlanSharingAcrossClients: two clients register textually
// different but counting-equivalent queries; the second counter's plans
// come out of the fingerprint-keyed plan cache, and its first count on
// the same structure is answered by the shared session count memo.
func TestPlanSharingAcrossClients(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := cl.CreateStructure(ctx, "g", "E(a,b). E(b,c). E(c,d). E(d,a).", nil); err != nil {
		t.Fatal(err)
	}

	q1 := "p(x,y) := E(x,y)"
	q2 := "q(u,w) := E(u,w)" // renamed: counting equivalent, different text
	v1, _, err := cl.Count(ctx, q1, "g")
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := cl.Count(ctx, q2, "g")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cmp(v2) != 0 {
		t.Fatalf("equivalent queries disagree: %v vs %v", v1, v2)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queries) != 2 {
		t.Fatalf("stats lists %d queries, want 2", len(st.Queries))
	}
	var sharedPlans int
	var memoHits uint64
	for _, qs := range st.Queries {
		sharedPlans += qs.SharedPlans
		memoHits += qs.CountCacheHits
	}
	if sharedPlans < 1 {
		t.Fatalf("no plan sharing across counting-equivalent queries: %+v", st.Queries)
	}
	if memoHits < 1 {
		t.Fatalf("second query should hit the shared session count memo: %+v", st.Queries)
	}
	// The caches block: this server compiled two counters, the second
	// query's plan came out of the process-wide plan cache, and g holds a
	// session.
	if c := st.Caches; c.Counters.Len != 2 || c.Counters.Misses < 2 || c.Plans.Hits < 1 || c.Sessions.Len < 1 {
		t.Fatalf("caches block: %+v", c)
	}
}

func TestCountBatchEndpoint(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	want := make([]*big.Int, 3)
	names := make([]string, 3)
	for i := range names {
		b := workload.RandomStructure(workload.EdgeSig(), 12, 0.3, int64(i+1))
		names[i] = fmt.Sprintf("g%d", i)
		if _, err := cl.CreateStructure(ctx, names[i], factsText(t, b), nil); err != nil {
			t.Fatal(err)
		}
	}
	vs, _, err := cl.CountBatch(ctx, triangleQuery, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		want[i], _, err = cl.Count(ctx, triangleQuery, name)
		if err != nil {
			t.Fatal(err)
		}
		if vs[i].Cmp(want[i]) != 0 {
			t.Fatalf("batch[%d] = %v, single count = %v", i, vs[i], want[i])
		}
	}
}

// TestDeadlineCancellation: a 1ms budget does not cover a free 4-cycle on
// a structure where the server has just taken 100 × that to count it
// (workload.SlowDigraph); the server must answer 504 with the executor
// aborted, and the same request without the tiny budget must succeed
// afterwards (no memo poisoning).
func TestDeadlineCancellation(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	const cycle4Query = "c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)"
	b := workload.SlowDigraph(t, time.Millisecond, func(b *structure.Structure) error {
		probe := fmt.Sprintf("probe%d", b.Size())
		if _, err := cl.CreateStructure(ctx, probe, factsText(t, b), nil); err != nil {
			return err
		}
		_, _, err := cl.Count(ctx, cycle4Query, probe)
		return err
	})
	if _, err := cl.CreateStructure(ctx, "big", factsText(t, b), nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.CountWith(ctx, CountRequest{Query: cycle4Query, Structure: "big", TimeoutMillis: 1})
	if err == nil || !strings.Contains(err.Error(), "HTTP 504") {
		t.Fatalf("err = %v, want HTTP 504 deadline error", err)
	}
	v, _, err := cl.Count(ctx, cycle4Query, "big")
	if err != nil {
		t.Fatalf("count after deadline abort: %v", err)
	}
	if v.Sign() <= 0 {
		t.Fatalf("suspicious post-abort count %v", v)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Deadline < 1 {
		t.Fatalf("deadline counter not incremented: %+v", st.Admission)
	}
}

// TestAdmissionControl: with a cap of 1, a counting request arriving
// while another is executing is rejected with 503.
func TestAdmissionControl(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxInFlight: 1})
	ctx := context.Background()
	b := workload.RandomStructure(workload.EdgeSig(), 250, 0.5, 29)
	if _, err := cl.CreateStructure(ctx, "big", factsText(t, b), nil); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot directly (deterministic), then hit the API.
	release, err := s.admit()
	if err != nil {
		t.Fatal("could not occupy the admission slot")
	}
	_, _, err = cl.Count(ctx, triangleQuery, "big")
	release()
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("err = %v, want HTTP 503 while saturated", err)
	}

	// With the slot free the same request succeeds.
	if _, _, err := cl.Count(ctx, triangleQuery, "big"); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Rejected < 1 {
		t.Fatalf("rejected counter not incremented: %+v", st.Admission)
	}
}

// TestGracefulShutdown: Shutdown lets an in-flight count finish and
// refuses new connections afterwards.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cl := NewClient("http://"+s.Addr(), nil)
	ctx := context.Background()
	b := workload.RandomStructure(workload.EdgeSig(), 200, 0.5, 31)
	if _, err := cl.CreateStructure(ctx, "big", factsText(t, b), nil); err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		countErr error
		count    *big.Int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		count, _, countErr = cl.Count(ctx, triangleQuery, "big")
	}()
	time.Sleep(50 * time.Millisecond) // let the count get in flight
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if countErr != nil {
		t.Fatalf("in-flight count was not drained: %v", countErr)
	}
	if count == nil || count.Sign() < 0 {
		t.Fatalf("drained count = %v", count)
	}
	if err := cl.Healthz(ctx); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

func TestErrorStatuses(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := cl.CreateStructure(ctx, "g", "E(a,b).", nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"duplicate structure", func() error {
			_, err := cl.CreateStructure(ctx, "g", "E(a,b).", nil)
			return err
		}, "HTTP 409"},
		{"unknown structure count", func() error {
			_, _, err := cl.Count(ctx, triangleQuery, "nope")
			return err
		}, "HTTP 404"},
		{"unknown structure info", func() error {
			_, err := cl.Structure(ctx, "nope")
			return err
		}, "HTTP 404"},
		{"bad query", func() error {
			_, _, err := cl.Count(ctx, "this is not a query", "g")
			return err
		}, "HTTP 400"},
		{"engine field", func() error {
			body := map[string]string{"query": triangleQuery, "structure": "g", "engine": "fpt"}
			return cl.do(ctx, "POST", "/count", body, nil, false)
		}, `unknown field "engine" (HTTP 400)`},
		{"bad facts", func() error {
			_, err := cl.AppendFacts(ctx, "g", "E(a,b,c).") // arity mismatch
			return err
		}, "HTTP 400"},
		{"empty batch", func() error {
			_, _, err := cl.CountBatch(ctx, triangleQuery, nil)
			return err
		}, "HTTP 400"},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
	}
}

func TestHealthzAndStructureListing(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"b", "a"} {
		if _, err := cl.CreateStructure(ctx, n, "E(x,y).", nil); err != nil {
			t.Fatal(err)
		}
	}
	list, err := cl.Structures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("structures = %+v, want sorted [a b]", list)
	}
}
