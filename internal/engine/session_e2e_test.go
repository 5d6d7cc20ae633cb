package engine_test

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Counts racing their session's retirement stay exact.  A session leaves
// the registry in three ways — ReleaseSession, LRU eviction when the
// registry fills past its cap, and stale replacement when SessionFor
// meets a structure that changed — and nothing is freed when it does:
// counts still running on it keep its tables alive.  For release and
// eviction, counts run on the session while it leaves.  A structure is
// never changed under a running count, so for stale replacement the
// tuple goes in first, and the counts race the replacement itself
// (which adopts the displaced session's settled counts as priors) on
// the successor.  Each count, plain and keyed, is checked against
// count.EPDirect; 8 elements build tables on tuples, 64 on rows.
// Exercised under -race.
func TestCountsRaceSessionRetirement(t *testing.T) {
	sig := workload.EdgeSig()
	type query struct {
		src string
		q   logic.Query
		pl  engine.Plan
	}
	var queries []query
	for _, src := range []string{
		"q(x,y,z) := E(x,y) & E(y,z)",
		"q(x,z) := exists y. E(x,y) & E(y,z) & E(z,x)",
	} {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		pl, err := engine.Compile(p, engine.FPT)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{src, q, pl})
	}
	epDirect := func(b *structure.Structure) []*big.Int {
		want := make([]*big.Int, len(queries))
		for i, q := range queries {
			w, err := count.EPDirect(q.q, b)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		return want
	}
	// countAll runs every query on s, plain and keyed, and checks it.
	countAll := func(label string, s *engine.Session, want []*big.Int) {
		for i, q := range queries {
			plain, err := q.pl.CountIn(context.Background(), s)
			if err != nil {
				t.Error(err)
				continue
			}
			keyed, _, err := engine.CountKeyedCtx(context.Background(), q.pl, q.src, s, 0)
			if err != nil {
				t.Error(err)
				continue
			}
			if plain.Cmp(want[i]) != 0 || keyed.Cmp(want[i]) != 0 {
				t.Errorf("%s: %s counts %v, keyed %v, EPDirect %v", label, q.src, plain, keyed, want[i])
			}
		}
	}
	const workers = 4
	modes := []struct {
		name  string
		leave func(b *structure.Structure)
	}{
		{"release", engine.ReleaseSession},
		{"evict", func(*structure.Structure) {
			for i := 0; i < engine.SessionStats().Cap; i++ {
				engine.SessionFor(workload.RandomStructure(sig, 2, 0.5, int64(i)))
			}
		}},
		{"stale", func(b *structure.Structure) { engine.SessionFor(b) }},
	}
	for _, size := range []struct{ n, trials int }{{8, 6}, {64, 1}} {
		n := size.n
		for trial := 0; trial < size.trials; trial++ {
			for _, m := range modes {
				label := fmt.Sprintf("%s n=%d trial %d", m.name, n, trial)
				b := workload.RandomStructure(sig, n, 6/float64(n), int64(100*n+trial))
				s := engine.SessionFor(b)
				want := epDirect(b)
				var onSession func() *engine.Session
				if m.name == "stale" {
					countAll(label+" (before the append)", s, want) // priors for the successor
					e := trial
					for b.HasTuple("E", []int{e / n % n, e % n}) {
						e++
					}
					if err := b.AddTuple("E", e/n%n, e%n); err != nil {
						t.Fatal(err)
					}
					want = epDirect(b)
					onSession = func() *engine.Session { return engine.SessionFor(b) }
				} else {
					onSession = func() *engine.Session { return s }
				}
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						countAll(label, onSession(), want)
					}()
				}
				m.leave(b)
				wg.Wait()
				if engine.SessionFor(b) == s {
					t.Fatalf("%s: the session did not leave the registry", label)
				}
				if m.name != "stale" {
					countAll(label+" (after it left)", s, want)
				}
				engine.ReleaseSession(b)
			}
		}
	}
}
