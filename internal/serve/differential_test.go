package serve

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/parser"
)

// TestAppendUnderConcurrentCountDifferential interleaves fact appends
// with concurrent counts through the registry's locking discipline and
// then replays the append history sequentially: every count observed at
// version v must equal the count of a freshly built structure holding
// exactly the facts ingested up to v.  This pins the two guarantees the
// serving layer gives mutating structures: append batches are atomic
// with respect to counting (no count sees half a batch), and the
// version bump correctly invalidates cached sessions (no count is
// answered from a stale memo).  Run under -race this is also the
// regression test for structure append-under-concurrent-count safety.
func TestAppendUnderConcurrentCountDifferential(t *testing.T) {
	const query = "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"
	initial := "universe v0, v1, v2, v3, v4, v5, v6, v7.\nE(v0,v1). E(v1,v2). E(v2,v0).\n"

	reg := NewRegistry(0, 1)
	if _, err := reg.CreateStructure("g", initial, nil); err != nil {
		t.Fatal(err)
	}
	e, err := reg.entry("g")
	if err != nil {
		t.Fatal(err)
	}
	counter, err := reg.counterFor(query, e.b.Signature())
	if err != nil {
		t.Fatal(err)
	}

	// Append batches: each closes one new directed triangle through a
	// fresh vertex, so the count strictly grows and a half-applied
	// batch would produce a count matching no checkpoint.
	const nAppends = 32
	batches := make([]string, nAppends)
	for i := range batches {
		a, b := i%8, (i+1)%8
		w := fmt.Sprintf("w%d", i)
		batches[i] = fmt.Sprintf("E(v%d,%s). E(%s,v%d).", b, w, w, a)
		if (a+1)%8 != b {
			// Ensure the closing edge exists for non-adjacent pairs too.
			batches[i] += fmt.Sprintf(" E(v%d,v%d).", a, b)
		}
	}

	type checkpoint struct {
		version uint64
		prefix  int // batches applied
	}
	type observation struct {
		version uint64
		count   *big.Int
	}

	var (
		mu          sync.Mutex
		checkpoints = []checkpoint{{version: e.b.Version(), prefix: 0}}
		obs         []observation
	)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: one atomic batch at a time
		defer wg.Done()
		for i, facts := range batches {
			info, err := reg.AppendFacts("g", facts)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			checkpoints = append(checkpoints, checkpoint{version: info.Version, prefix: i + 1})
			mu.Unlock()
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				e.mu.RLock()
				version := e.b.Version()
				v, err := counter.CountCtx(context.Background(), e.b)
				e.mu.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				obs = append(obs, observation{version: version, count: v})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Sequential replay: rebuild each checkpoint's structure from
	// scratch and count with a fresh counter.
	prefixOf := make(map[uint64]int, len(checkpoints))
	for _, cp := range checkpoints {
		prefixOf[cp.version] = cp.prefix
	}
	replayCount := func(prefix int) *big.Int {
		src := initial
		for i := 0; i < prefix; i++ {
			src += batches[i] + "\n"
		}
		b, err := parser.ParseStructure(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := reg.counterFor(query, b.Signature())
		if err != nil {
			t.Fatal(err)
		}
		v, err := fresh.Count(b)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := make(map[int]*big.Int, len(checkpoints))
	seen := 0
	for _, o := range obs {
		prefix, ok := prefixOf[o.version]
		if !ok {
			t.Fatalf("count observed version %d, which is no append boundary — a torn batch", o.version)
		}
		w, ok := want[prefix]
		if !ok {
			w = replayCount(prefix)
			want[prefix] = w
		}
		if o.count.Cmp(w) != 0 {
			t.Fatalf("count at version %d (prefix %d) = %v, sequential replay = %v",
				o.version, prefix, o.count, w)
		}
		seen++
	}
	if seen != 72 {
		t.Fatalf("recorded %d observations, want 72", seen)
	}
}
