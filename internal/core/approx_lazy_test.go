package core

import (
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
// fresh counter give the estimate a sequential call gives.
func TestEstimatorBuiltOnFirstApproxCount(t *testing.T) {
	b := workload.GraphStructure(workload.ER(30, 0.4, 11))
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
	if _, err := c.Count(b); err != nil {
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
