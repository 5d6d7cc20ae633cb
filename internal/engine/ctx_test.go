package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/structure"
	"repro/internal/workload"
)

func TestRunBoundedCtxCancelStopsNewWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := RunBoundedCtx(ctx, 1000, 4, func(i int) error {
		started.Add(1)
		if started.Load() == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers observe the cancellation before taking their next index;
	// at most one in-flight task per worker can have started after it.
	if n := started.Load(); n > 16 {
		t.Fatalf("%d tasks started after cancellation of a 4-worker pool", n)
	}
}

func TestRunBoundedCtxSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := RunBoundedCtx(ctx, 100, 1, func(i int) error {
		ran++
		if ran == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d tasks after cancellation, want 3", ran)
	}
}

func TestRunBoundedCtxCompletesWithoutCancel(t *testing.T) {
	if err := RunBoundedCtx(context.Background(), 50, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
}

// testDeadline is the deadline of the mid-run abort tests below.
const testDeadline = 500 * time.Microsecond

// slowCycle4 returns the free 4-cycle's plan and a structure on which its
// un-cancelled count has just been measured at 100 × testDeadline or more
// (workload.SlowDigraph): an executor run a deadline does cut short.
func slowCycle4(t *testing.T) (Plan, *structure.Structure) {
	t.Helper()
	pl, err := Compile(compilePP(t, workload.EdgeSig(), "c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	return pl, workload.SlowDigraph(t, testDeadline, func(b *structure.Structure) error {
		_, err := pl.CountIn(context.Background(), NewSession(b))
		return err
	})
}

// TestCountInCtxPreCancelled: a context that is already done returns its
// error without executing.
func TestCountInCtxPreCancelled(t *testing.T) {
	pl, err := Compile(compilePP(t, workload.EdgeSig(), "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 30, 0.3, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountInCtx(ctx, pl, SessionFor(b), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCountInCtxAbortMidRun: a deadline that fires mid-execution aborts
// the FPT executor well before the full enumeration would finish, and a
// subsequent un-cancelled run on the same session still produces the
// correct count (the abort discards partial state and does not poison
// any cache).
func TestCountInCtxAbortMidRun(t *testing.T) {
	pl, b := slowCycle4(t)
	s := SessionFor(b)

	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	_, err := CountInCtx(ctx, pl, s, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	want, err := pl.CountIn(context.Background(), SessionFor(b))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountInCtx(context.Background(), pl, SessionFor(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cmp(got) != 0 {
		t.Fatalf("post-abort count %v != %v", got, want)
	}
}

// TestCountKeyedCtxMemoNotPoisoned: a cancelled keyed count must not
// leave its error in the session memo; the next keyed request
// recomputes and succeeds.
func TestCountKeyedCtxMemoNotPoisoned(t *testing.T) {
	pl, b := slowCycle4(t)
	s := SessionFor(b)
	const fp = "test-fingerprint"

	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	if _, _, err := CountKeyedCtx(ctx, pl, fp, s, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	v, hit, err := CountKeyedCtx(context.Background(), pl, fp, s, 0)
	if err != nil {
		t.Fatalf("recompute after cancelled memo entry: %v", err)
	}
	if hit {
		t.Fatalf("cancelled entry should have been evicted, got a memo hit")
	}
	want, err := pl.CountIn(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(want) != 0 {
		t.Fatalf("recomputed count %v != %v", v, want)
	}
}

// TestCountKeyedCtxHealthyWaiterRetries: a caller with a live context
// that parks on a computation driven by another caller's short deadline
// must not surface that caller's cancellation — it retries and gets the
// correct count.
func TestCountKeyedCtxHealthyWaiterRetries(t *testing.T) {
	pl, b := slowCycle4(t)
	s := SessionFor(b)
	const fp = "waiter-retry-fingerprint"

	shortCtx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	var (
		wg       sync.WaitGroup
		shortErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, shortErr = CountKeyedCtx(shortCtx, pl, fp, s, 0)
	}()
	time.Sleep(200 * time.Microsecond) // let the short-deadline caller start computing
	v, _, err := CountKeyedCtx(context.Background(), pl, fp, s, 0)
	wg.Wait()
	if !errors.Is(shortErr, context.DeadlineExceeded) {
		t.Fatalf("short-deadline caller err = %v, want context.DeadlineExceeded", shortErr)
	}
	if err != nil {
		t.Fatalf("healthy caller err = %v (another caller's deadline leaked)", err)
	}
	want, err := pl.CountIn(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(want) != 0 {
		t.Fatalf("healthy caller count %v != %v", v, want)
	}
}

// predicateFixture compiles the quantified 3-path — one ∃-component
// predicate on {s,t}, nothing else — and returns its plan and the
// predicate constraint.
func predicateFixture(t *testing.T) (Plan, *planConstraint) {
	t.Helper()
	pl, err := Compile(compilePP(t, workload.EdgeSig(), "p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	return pl, firstPredicate(t, pl)
}

// cachedTable reports the table the session has cached under the
// constraint's key (nil: none, or a materialization that did not finish).
func cachedTable(s *Session, c *planConstraint) *Table {
	e, ok := s.tables.Get(c.key)
	if !ok {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.t
}

// TestPredicateMaterializationPreCancelled: with the done channel already
// closed the nested run stops at its first poll, reports the abort, and
// caches nothing; the same session then materializes the table in full.
func TestPredicateMaterializationPreCancelled(t *testing.T) {
	_, pred := predicateFixture(t)
	s := NewSession(workload.RandomStructure(workload.EdgeSig(), 250, 0.5, 17))
	done := make(chan struct{})
	close(done)
	if tab := s.tableFor(pred, done); tab != nil {
		t.Fatalf("tableFor under a closed done channel returned a table of %d rows, want none", tab.Len())
	}
	if cachedTable(s, pred) != nil {
		t.Fatal("aborted materialization was cached")
	}
	tab := s.tableFor(pred, nil)
	if tab == nil {
		t.Fatal("materialization after an abort did not complete")
	}
	ref := NewSession(s.B).tableFor(pred, nil)
	if tab.Len() != ref.Len() || tab.Len() == 0 {
		t.Fatalf("table after an abort has %d rows, a fresh session's %d", tab.Len(), ref.Len())
	}
}

// TestPredicateMaterializationDeadlineMidRun: a deadline that expires
// while the predicate is being materialized surfaces as the context's
// error instead of running the materialization out, the session keeps no
// partial table, and the next count on the same session is right.
func TestPredicateMaterializationDeadlineMidRun(t *testing.T) {
	pl, pred := predicateFixture(t)
	// The nested run ORs rows, 64 values a word: a shorter deadline keeps
	// the instance that is 100 × it small.
	const deadline = 200 * time.Microsecond
	s := NewSession(workload.SlowDigraph(t, deadline, func(b *structure.Structure) error {
		_, err := pl.CountIn(context.Background(), NewSession(b))
		return err
	}))
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if _, err := CountInCtx(ctx, pl, s, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	_, attempted := s.tables.Get(pred.key)
	if !attempted {
		t.Fatal("the deadline fired before the predicate was requested: the test exercised nothing")
	}
	if cachedTable(s, pred) != nil {
		t.Fatal("a materialization cut short by the deadline was cached")
	}
	got, err := CountInCtx(context.Background(), pl, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.CountIn(context.Background(), NewSession(s.B))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("count after an aborted materialization %v, fresh session %v", got, want)
	}
}

// TestJoinCountAbortInsideRowTails: on a dense triangle every pivot row's
// work is one row tail, so a signal that fires a hundredth of the way into
// the run fires between tails; the run must notice, report the abort and
// bind only part of what the full run binds, and the bound plan must count
// right afterwards.
func TestJoinCountAbortInsideRowTails(t *testing.T) {
	pl, err := Compile(compilePP(t, workload.EdgeSig(), "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 600, 0.5, 41)
	s, pc := NewSession(b), pl.(*fptPlan).comps[0]
	tables := make([]*Table, len(pc.constraints))
	for ci := range tables {
		tables[ci] = s.tableFor(&pc.constraints[ci], nil)
	}
	ep, _ := s.execPlanFor(pc, tables)
	run := func(done chan struct{}) (total string, aborted bool, binds int64, took time.Duration) {
		before, start := rowBinds.Load(), time.Now()
		v, aborted := joinCount(pc, ep, b.Size(), done)
		return fmt.Sprint(v), aborted, rowBinds.Load() - before, time.Since(start)
	}
	want, aborted, full, took := run(make(chan struct{}))
	if aborted || full < int64(tables[0].Len()) {
		t.Fatalf("the full run aborted (%v) or bound %d positions from rows over %d pivot rows: the test exercised nothing", aborted, full, tables[0].Len())
	}
	done := make(chan struct{})
	timer := time.AfterFunc(took/100, func() { close(done) })
	defer timer.Stop()
	if _, aborted, part, _ := run(done); !aborted || part >= full {
		t.Fatalf("signal %v into a %v run: aborted = %v after %d of %d row binds", took/100, took, aborted, part, full)
	}
	if got, aborted, _, _ := run(nil); aborted || got != want {
		t.Fatalf("count after the abort %v (aborted = %v), want %v", got, aborted, want)
	}
}
