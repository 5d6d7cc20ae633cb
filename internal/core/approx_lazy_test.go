package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/count"
	"repro/internal/workload"
)

// samplerBuilt reports whether the estimator has built its per-component
// structures (its comps field, read through reflection: the package keeps
// no hook for tests).
func samplerBuilt(e *approx.Estimator) bool {
	return !reflect.ValueOf(e).Elem().FieldByName("comps").IsNil()
}

// TestEstimatorBuiltOnFirstApproxCount: a hard term's estimator builds
// nothing while the term is counted exactly, builds its components on
// the first CountApprox, and concurrent first CountApprox calls on a
// fresh counter give the estimate a sequential call gives.  The exact
// count runs on a twin of b: on b itself it would be memoized, and
// approx mode would answer from the memo without sampling.
func TestEstimatorBuiltOnFirstApproxCount(t *testing.T) {
	b := workload.GraphStructure(workload.ER(30, 0.4, 11))
	twin := workload.GraphStructure(workload.ER(30, 0.4, 11))
	prm := approx.Params{Epsilon: 0.1, Delta: 0.05, Seed: 3}
	newCounter := func() *Counter {
		c, err := NewCounter(workload.CliqueQuery(4), nil, count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := newCounter()
	var hard []*approx.Estimator
	for i := range c.terms {
		if e := c.terms[i].est; e != nil {
			hard = append(hard, e)
		}
	}
	if len(hard) == 0 {
		t.Fatal("free K4 routed no term hard")
	}
	if _, err := c.Count(twin); err != nil {
		t.Fatal(err)
	}
	for _, e := range hard {
		if samplerBuilt(e) {
			t.Fatal("an exact count built a sampler's components")
		}
	}
	want, err := c.CountApprox(b, prm)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hard {
		if !samplerBuilt(e) {
			t.Fatal("the first CountApprox left a hard term's components unbuilt")
		}
	}

	fresh := newCounter()
	const callers = 8
	got := make([]ApproxResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = fresh.CountApprox(b, prm)
		}()
	}
	wg.Wait()
	for i, r := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if r.Estimate.Cmp(want.Estimate) != 0 || r.Samples != want.Samples || r.RelErr != want.RelErr {
			t.Fatalf("concurrent first call %d: (%v, %d, %g), sequential (%v, %d, %g)",
				i, r.Estimate, r.Samples, r.RelErr, want.Estimate, want.Samples, want.RelErr)
		}
	}
}

// TestConcurrentApproxMatchesSequential: approx counts of one term on
// one session share its warm samplers, one request per sampler at a
// time; concurrent requests must return, seed for seed, the estimates
// that sequential requests return on a twin structure, whose session
// starts with no samplers at all.  Run it under -race.
func TestConcurrentApproxMatchesSequential(t *testing.T) {
	c, err := NewCounter(workload.CliqueQuery(4), nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.GraphStructure(workload.ER(30, 0.4, 11))
	twin := workload.GraphStructure(workload.ER(30, 0.4, 11))
	const seeds = 6
	want := make([]ApproxResult, seeds)
	for s := range want {
		if want[s], err = c.CountApprox(twin, approx.Params{Seed: int64(s + 1)}); err != nil {
			t.Fatal(err)
		}
		if want[s].Samples == 0 {
			t.Fatalf("seed %d: no draw, nothing to compare", s+1)
		}
	}
	const callers, rounds = 4, 3
	errs := make(chan error, callers*rounds*seeds)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*seeds; r++ {
				s := (g + r) % seeds
				got, err := c.CountApprox(b, approx.Params{Seed: int64(s + 1)})
				if err == nil && (got.Estimate.Cmp(want[s].Estimate) != 0 || got.Samples != want[s].Samples || got.RelErr != want[s].RelErr) {
					err = fmt.Errorf("seed %d: concurrent (%v, %d, %g), sequential (%v, %d, %g)",
						s+1, got.Estimate, got.Samples, got.RelErr, want[s].Estimate, want[s].Samples, want[s].RelErr)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
