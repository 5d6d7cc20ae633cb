package workload

import (
	"testing"
	"time"

	"repro/internal/structure"
)

// SlowDigraph returns a dense random digraph for a deadline test: one on
// which count — the caller's un-cancelled count of the query it is about
// to put under deadline — has just taken, on an identical copy, at least
// 100 × deadline, so that "too much work for the deadline" is checked, not
// assumed.  A free 4-cycle is the query to use: its separator carries
// weights on two variables, which keeps it on the executor's per-value
// path, and it scales with the universe.
func SlowDigraph(t testing.TB, deadline time.Duration, count func(*structure.Structure) error) *structure.Structure {
	t.Helper()
	for _, n := range []int{200, 250, 300, 360} {
		start := time.Now()
		if err := count(RandomStructure(EdgeSig(), n, 0.5, int64(n))); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) >= 100*deadline {
			return RandomStructure(EdgeSig(), n, 0.5, int64(n))
		}
	}
	t.Fatalf("no un-cancelled count took 100 × the %v deadline: the test exercised nothing", deadline)
	return nil
}
