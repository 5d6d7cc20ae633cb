package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/workload"
)

const triQuery = "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"

// openStore opens (or reopens) a wal store in dir.
func openStore(t *testing.T, dir string, fs wal.FS, sync wal.SyncPolicy) (*wal.Store, *wal.RecoverReport) {
	t.Helper()
	st, rep, err := wal.Open(wal.Options{Dir: dir, FS: fs, Sync: sync})
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	return st, rep
}

// durableRegistry builds a registry attached to a store in dir.
func durableRegistry(t *testing.T, dir string, fs wal.FS, sync wal.SyncPolicy) *Registry {
	t.Helper()
	reg := NewRegistry(0, 1)
	st, rep := openStore(t, dir, fs, sync)
	if err := reg.AttachStore(st, rep, -1); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	return reg
}

// TestServeRecoveryRoundTrip drives the registry's durable paths —
// create, append, compact — then restarts (new store, new registry)
// and checks structures, versions, and counts all survive.
func TestServeRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	reg := durableRegistry(t, dir, nil, wal.SyncAlways)
	base := workload.RandomStructure(workload.EdgeSig(), 40, 0.1, 5)
	baseFacts, err := base.FactsString()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateStructure("g", baseFacts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateStructure("tiny", "E(a,b). E(b,c). E(c,a).",
		[]RelSpec{{Name: "E", Arity: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AppendFactsBatch("g", "E(v1,v2). E(v2,v3). E(v3,v1).", "batch-1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AppendFactsBatch("g", "E(v5,v6).", "batch-2"); err != nil {
		t.Fatal(err)
	}
	wantInfos := reg.Structures()
	wantCounts := make(map[string]string)
	for _, info := range wantInfos {
		c, err := reg.counterFor(triQuery, mustEntry(t, reg, info.Name).b.Signature())
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.CountCtx(ctx, mustEntry(t, reg, info.Name).b)
		if err != nil {
			t.Fatal(err)
		}
		wantCounts[info.Name] = v.String()
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := durableRegistry(t, dir, nil, wal.SyncAlways)
	defer reg2.Close()
	gotInfos := reg2.Structures()
	if len(gotInfos) != len(wantInfos) {
		t.Fatalf("recovered %d structures, want %d", len(gotInfos), len(wantInfos))
	}
	for i, want := range wantInfos {
		got := gotInfos[i]
		if got.Name != want.Name || got.Size != want.Size || got.Tuples != want.Tuples || got.Version != want.Version {
			t.Fatalf("structure %d: got %+v, want %+v", i, got, want)
		}
		c, err := reg2.counterFor(triQuery, mustEntry(t, reg2, got.Name).b.Signature())
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.CountCtx(ctx, mustEntry(t, reg2, got.Name).b)
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != wantCounts[got.Name] {
			t.Fatalf("%s: recovered count %s, want %s", got.Name, v, wantCounts[got.Name])
		}
	}
}

func mustEntry(t *testing.T, reg *Registry, name string) *structEntry {
	t.Helper()
	e, err := reg.entry(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAppendIdempotencyBatchID: a repeated batch id returns the
// ORIGINAL response (same Inserted, same Version) without re-applying,
// both within a process and across a restart.
func TestAppendIdempotencyBatchID(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(t, dir, nil, wal.SyncAlways)
	if _, err := reg.CreateStructure("g", "E(a,b).", nil); err != nil {
		t.Fatal(err)
	}
	first, err := reg.AppendFactsBatch("g", "E(b,c). E(c,d).", "batch-7")
	if err != nil {
		t.Fatal(err)
	}
	if first.Inserted != 2 || first.BatchID != "batch-7" {
		t.Fatalf("first append: %+v", first)
	}
	again, err := reg.AppendFactsBatch("g", "E(b,c). E(c,d).", "batch-7")
	if err != nil {
		t.Fatal(err)
	}
	// Memo hit: the original Inserted=2, not a re-merge's 0.
	if again != first {
		t.Fatalf("retried batch: got %+v, want original %+v", again, first)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Across restart: recovery rebuilds the memo from the WAL.
	reg2 := durableRegistry(t, dir, nil, wal.SyncAlways)
	defer reg2.Close()
	preInfo, err := reg2.StructureInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := reg2.AppendFactsBatch("g", "E(b,c). E(c,d).", "batch-7")
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Inserted != 2 || replayed.Version != preInfo.Version {
		t.Fatalf("post-restart replay: %+v (pre-version %d)", replayed, preInfo.Version)
	}
	postInfo, err := reg2.StructureInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	if postInfo.Version != preInfo.Version {
		t.Fatalf("replayed batch mutated the structure: %+v -> %+v", preInfo, postInfo)
	}
}

// TestShutdownDrainsBlockedWriter is the shutdown-drain regression
// test: Close must wait for an append writer blocked inside the WAL
// write, and the batch it was writing must be durable after Close
// returns.
func TestShutdownDrainsBlockedWriter(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	reg := durableRegistry(t, dir, ffs, wal.SyncAlways)
	if _, err := reg.CreateStructure("g", "E(a,b).", nil); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ffs.SetWriteHook(func(name string, p []byte) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	})

	appendDone := make(chan error, 1)
	go func() {
		_, err := reg.AppendFactsBatch("g", "E(b,c).", "blocked-batch")
		appendDone <- err
	}()
	<-entered // the writer is mid-WAL-write

	closeDone := make(chan error, 1)
	go func() { closeDone <- reg.Close() }()

	select {
	case err := <-closeDone:
		t.Fatalf("Close returned while a writer was blocked mid-append (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Close is (correctly) waiting on the writer.
	}

	close(release)
	if err := <-appendDone; err != nil {
		t.Fatalf("blocked append failed: %v", err)
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Close never returned after the writer finished")
	}

	// A write refused after Close must be the retryable shutdown error.
	if _, err := reg.AppendFactsBatch("g", "E(x,y).", ""); !errors.Is(err, errClosed) {
		t.Fatalf("append after Close: %v", err)
	}

	// The drained batch is durable.
	reg2 := durableRegistry(t, dir, nil, wal.SyncAlways)
	defer reg2.Close()
	info, err := reg2.StructureInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 2 {
		t.Fatalf("recovered %d tuples, want 2 (blocked batch lost?)", info.Tuples)
	}
}

// TestHealthzRecoveringVsReady: a durable server reports 503
// "recovering" before Start finishes recovery and 200 "ready" after.
func TestHealthzRecoveringVsReady(t *testing.T) {
	srv := New(Config{DataDir: t.TempDir()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery healthz: HTTP %d, want 503", resp.StatusCode)
	}

	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if err := NewClient("http://"+srv.Addr(), nil).Healthz(context.Background()); err != nil {
		t.Fatalf("post-recovery healthz: %v", err)
	}

	// An in-memory server is born ready.
	srv2 := New(Config{})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	resp2, err := http.Get(hs2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("in-memory healthz: HTTP %d, want 200", resp2.StatusCode)
	}
}

// TestServerRestartOverHTTP exercises the whole stack: a Started
// durable server ingests over HTTP, shuts down gracefully, restarts on
// the same data dir, and serves identical counts.
func TestServerRestartOverHTTP(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv := New(Config{DataDir: dir, Fsync: "always"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cl := NewClient("http://"+srv.Addr(), nil)
	if _, err := cl.CreateStructure(ctx, "g", "E(a,b). E(b,c). E(c,a).", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AppendFactsBatch(ctx, "g", "E(c,d). E(d,a).", "hb-1"); err != nil {
		t.Fatal(err)
	}
	want, wantResp, err := cl.Count(ctx, triQuery, "g")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{DataDir: dir, Fsync: "always"})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(ctx)
	cl2 := NewClient("http://"+srv2.Addr(), nil)
	got, gotResp, err := cl2.Count(ctx, triQuery, "g")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 || gotResp.Version != wantResp.Version {
		t.Fatalf("restart changed the answer: %s@v%d, want %s@v%d", got, gotResp.Version, want, wantResp.Version)
	}
	stats, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Durability.Enabled || stats.Durability.RecoveredStructures != 1 {
		t.Fatalf("durability stats: %+v", stats.Durability)
	}
}

// TestKillRestartLiveStream is the serving-layer differential: a
// registry under fsync=always takes a live append stream (with
// concurrent counting readers) and is killed mid-write at a random
// byte; after recovery the surviving state must contain EXACTLY the
// acknowledged batches — zero acked loss — and count identically to a
// sequential replay of those acks.
func TestKillRestartLiveStream(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		ffs := wal.NewFaultFS(wal.OSFS{})
		reg := durableRegistry(t, dir, ffs, wal.SyncAlways)
		if _, err := reg.CreateStructure("g", "E(v0,v1).", []RelSpec{{Name: "E", Arity: 2}}); err != nil {
			t.Fatal(err)
		}

		// Concurrent readers hammer counts while the stream appends.
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					e, err := reg.entry("g")
					if err != nil {
						return
					}
					c, err := reg.counterFor(triQuery, e.b.Signature())
					if err != nil {
						return
					}
					e.mu.RLock()
					_, _ = c.CountCtx(ctx, e.b)
					e.mu.RUnlock()
				}
			}()
		}

		ffs.CrashAfterBytes(int64(100 + rng.Intn(1500)))
		var acked []string
		for i := 0; ; i++ {
			batch := fmt.Sprintf("E(v%d,v%d). E(v%d,v%d).",
				rng.Intn(30), rng.Intn(30), rng.Intn(30), rng.Intn(30))
			if _, err := reg.AppendFactsBatch("g", batch, fmt.Sprintf("live-%d", i)); err != nil {
				if !ffs.Crashed() {
					t.Fatalf("trial %d: append %d failed without injected fault: %v", trial, i, err)
				}
				break
			}
			acked = append(acked, batch)
			if i > 400 {
				t.Fatalf("trial %d: fault never fired", trial)
			}
		}
		close(stop)
		readers.Wait()
		ffs.Crash() // drop unsynced bytes: the process is gone
		reg.Close()

		// Recover on a clean FS and differentially compare against a
		// sequential replay of exactly the acknowledged batches.
		reg2 := durableRegistry(t, dir, nil, wal.SyncAlways)
		replay := NewRegistry(0, 1)
		if _, err := replay.CreateStructure("g", "E(v0,v1).", []RelSpec{{Name: "E", Arity: 2}}); err != nil {
			t.Fatal(err)
		}
		for _, batch := range acked {
			if _, err := replay.AppendFacts("g", batch); err != nil {
				t.Fatal(err)
			}
		}
		gotInfo, err := reg2.StructureInfo("g")
		if err != nil {
			t.Fatalf("trial %d: recovered registry lost g: %v", trial, err)
		}
		wantInfo, err := replay.StructureInfo("g")
		if err != nil {
			t.Fatal(err)
		}
		if gotInfo.Size != wantInfo.Size || gotInfo.Tuples != wantInfo.Tuples || gotInfo.Version != wantInfo.Version {
			t.Fatalf("trial %d (%d acked): recovered %+v, want %+v", trial, len(acked), gotInfo, wantInfo)
		}
		gotB := mustEntry(t, reg2, "g").b
		wantB := mustEntry(t, replay, "g").b
		gotFacts, _ := gotB.FactsString()
		wantFacts, _ := wantB.FactsString()
		if gotFacts != wantFacts {
			t.Fatalf("trial %d: recovered facts differ from acknowledged replay", trial)
		}
		c, err := reg2.counterFor(triQuery, gotB.Signature())
		if err != nil {
			t.Fatal(err)
		}
		gotCount, err := c.CountCtx(ctx, gotB)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := replay.counterFor(triQuery, wantB.Signature())
		if err != nil {
			t.Fatal(err)
		}
		wantCount, err := cw.CountCtx(ctx, wantB)
		if err != nil {
			t.Fatal(err)
		}
		if gotCount.Cmp(wantCount) != 0 {
			t.Fatalf("trial %d: recovered count %s, want %s", trial, gotCount, wantCount)
		}
		reg2.Close()
	}
}

// TestCompactionUnderLoad: appends from several goroutines race
// explicit compactions; every acknowledged batch must survive a final
// close-and-recover.
func TestCompactionUnderLoad(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(t, dir, nil, wal.SyncBatch)
	if _, err := reg.CreateStructure("g", "E(v0,v1).", []RelSpec{{Name: "E", Arity: 2}}); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				batch := fmt.Sprintf("E(v%d,v%d).", (w*perWriter+i)%40, (w*perWriter+i*7)%40)
				if _, err := reg.AppendFactsBatch("g", batch, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- err
					return
				}
				if i%10 == 9 {
					if err := reg.Compact(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want, err := reg.StructureInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := durableRegistry(t, dir, nil, wal.SyncBatch)
	defer reg2.Close()
	got, err := reg2.StructureInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want.Size || got.Tuples != want.Tuples || got.Version != want.Version {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
}

// TestAppendAfterCloseIsRetryable503 maps the shutdown refusal onto the
// wire: a 503 with Retry-After, which the retrying client treats as
// transient.
func TestAppendAfterCloseIsRetryable503(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	cl := NewClient(hs.URL, nil)
	if _, err := cl.CreateStructure(ctx, "g", "E(a,b).", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().Close(); err != nil {
		t.Fatal(err)
	}
	_, err := cl.AppendFacts(ctx, "g", "E(b,c).")
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("append after close: %v, want a 503", err)
	}
}
