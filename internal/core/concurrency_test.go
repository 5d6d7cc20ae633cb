package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/structure"
	"repro/internal/workload"
)

// TestStatsConcurrentWithCounting is the -race regression test for the
// serving pattern: one goroutine batch-counts, one reads Stats/Explain,
// one retunes the worker budget — the exact interleaving a /stats
// endpoint produces against in-flight /count handlers.  Before workers
// became atomic, WithWorkers racing CountBatch's budget read (and the
// Stats snapshot) was a data race.
func TestStatsConcurrentWithCounting(t *testing.T) {
	q := parser.MustQuery("phi(x,y) := E(x,y) | E(y,x)")
	b := parser.MustStructure("E(a,b). E(b,c). E(c,a). E(a,c).", nil)
	c, err := NewCounter(q, b.Signature(), count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	batch := []*structure.Structure{b, b, b, b}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := c.CountBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			st := c.Stats()
			if st.Plans != len(c.terms) {
				t.Errorf("Stats snapshot lost plans: %d != %d", st.Plans, len(c.terms))
				return
			}
			_ = st.String()
			_ = c.Explain()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.WithWorkers(1 + i%4)
		}
	}()
	wg.Wait()
}

// testDeadline is the deadline of the two abort tests below.
const testDeadline = 500 * time.Microsecond

// slowCycle4 returns a counter of the free 4-cycle and a structure on
// which its un-cancelled count has just been measured at 100 ×
// testDeadline or more (workload.SlowDigraph).
func slowCycle4(t *testing.T) (*Counter, *structure.Structure) {
	t.Helper()
	c, err := NewCounter(workload.CycleQuery(4), workload.EdgeSig(), count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	return c, workload.SlowDigraph(t, testDeadline, func(b *structure.Structure) error {
		_, err := c.Count(b)
		engine.ReleaseSession(b)
		return err
	})
}

// TestCountCtxDeadline: an expired per-request deadline aborts the count
// with context.DeadlineExceeded, and the counter still answers the next
// un-cancelled request correctly (the per-session count memo must not be
// poisoned by the cancelled term).
func TestCountCtxDeadline(t *testing.T) {
	c, b := slowCycle4(t)
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	if _, err := c.CountCtx(ctx, b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CountCtx err = %v, want context.DeadlineExceeded", err)
	}

	got, err := c.CountCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Count(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("post-cancel count %v != %v", got, want)
	}
}

// TestCountBatchCtxCancel: cancelling a batch stops it with the
// context's error.
func TestCountBatchCtxCancel(t *testing.T) {
	c, b := slowCycle4(t)
	batch := []*structure.Structure{b}
	for i := 1; i < 4; i++ {
		batch = append(batch, workload.RandomStructure(workload.EdgeSig(), b.Size(), 0.5, int64(20+i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	if _, err := c.CountBatchCtx(ctx, batch); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CountBatchCtx err = %v, want context.DeadlineExceeded", err)
	}
	// The same batch completes without a deadline, and agrees with
	// per-structure counting.
	vs, err := c.CountBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, bi := range batch {
		want, err := c.Count(bi)
		if err != nil {
			t.Fatal(err)
		}
		if vs[i].Cmp(want) != 0 {
			t.Fatalf("batch[%d] = %v, want %v", i, vs[i], want)
		}
	}
}

// TestCountCtxPreCancelledSentence: a context that is already done stops
// a count whose only work is deciding a sentence disjunct — the check
// runs under the request's context like every term — and the count
// after it, on the same structure, is right.  A repeat reads the verdict
// from the session memo and shows as one count-cache hit in Stats.
func TestCountCtxPreCancelledSentence(t *testing.T) {
	c, err := NewCounter(parser.MustQuery("q(x,y) := E(x,y) | exists u. E(u,u)"), workload.EdgeSig(), count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	b := parser.MustStructure("E(1,1). E(1,2). E(2,3).", workload.EdgeSig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := c.CountCtx(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled CountCtx = %v, %v; want context.Canceled", v, err)
	}
	got, err := c.Count(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 9 {
		t.Fatalf("count = %v, want 9 = |B|²", got)
	}
	hits := c.Stats().CountCacheHits
	if _, err := c.Count(b); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().CountCacheHits - hits; d != 1 {
		t.Fatalf("warm sentence check added %d count-cache hits, want 1", d)
	}
}
