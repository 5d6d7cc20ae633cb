// Statistical acceptance tests for the importance-sampling estimator:
// unbiasedness of the fixed-budget mean, (ε, δ) interval coverage against
// exact ground truth, multi-component products, exact short-circuits,
// seed reproducibility, and honesty on sparse-answer instances.
//
// Every test runs a fixed seed matrix so `go test ./...` is deterministic.
// The matrix base can be shifted with EPCQ_APPROX_SEED_BASE (used by
// `make approx-smoke` to sweep several disjoint matrices); the statistical
// tolerances below leave a Chernoff-style budget wide enough that any base
// passes with overwhelming probability — a failure under some base is
// evidence of estimator bias, not bad luck.
package approx_test

import (
	"context"
	"math"
	"math/big"
	"os"
	"strconv"
	"testing"

	"repro/internal/approx"
	"repro/internal/count"
	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// seedBase returns the base of the seed matrix (default 1); trial i of a
// test that declares offset off uses seed base + off + i.
func seedBase(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("EPCQ_APPROX_SEED_BASE")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("EPCQ_APPROX_SEED_BASE=%q: %v", s, err)
	}
	if v == 0 {
		v = 1
	}
	return v
}

// cliquePP is the k-clique pp-formula with every variable free.
func cliquePP(t *testing.T, k int) pp.PP {
	t.Helper()
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	p, err := pp.New(structure.AtomsOf(workload.GraphStructure(workload.CompleteGraph(k))), all)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// exactCount is the ground truth |φ(B)| by set-union enumeration.
func exactCount(t *testing.T, p pp.PP, b *structure.Structure) *big.Int {
	t.Helper()
	n, err := count.EPUnion([]pp.PP{p}, b)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func bigToF(n *big.Int) float64 {
	f, _ := new(big.Float).SetInt(n).Float64()
	return f
}

// TestUnbiasedMean checks E[estimate] = |φ(B)| for a fixed sampling budget.
// With ε driven to ~0 the adaptive stopping rule never fires, so each trial
// is a plain fixed-budget mean of i.i.d. unbiased weights and the trial
// average must approach the truth at the 1/√T rate.  The tolerance is five
// standard errors of the observed trial distribution — a deterministic
// pass for the default matrix, and a ~1e-6 false-positive rate under any.
func TestUnbiasedMean(t *testing.T) {
	base := seedBase(t)
	p := cliquePP(t, 3)
	b := workload.GraphStructure(workload.ER(40, 0.25, 3))
	truth := bigToF(exactCount(t, p, b))
	if truth == 0 {
		t.Fatal("degenerate instance: exact count is zero")
	}

	const (
		trials = 200
		budget = 512
	)
	est := approx.New(p)
	vals := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		res, err := est.Count(context.Background(), b, approx.Params{
			Epsilon:    1e-9, // never closes: forces the full budget
			MinSamples: budget,
			MaxSamples: budget,
			Seed:       base + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Samples != budget {
			t.Fatalf("trial %d spent %d samples, want the fixed budget %d", i, res.Samples, budget)
		}
		vals = append(vals, bigToF(res.Estimate))
	}

	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= trials
	var variance float64
	for _, v := range vals {
		variance += (v - mean) * (v - mean)
	}
	variance /= trials - 1
	stderr := math.Sqrt(variance / trials)
	if diff := math.Abs(mean - truth); diff > 5*stderr {
		t.Fatalf("trial mean %.1f vs truth %.1f: off by %.1f > 5 stderr (%.1f) — estimator looks biased",
			mean, truth, diff, 5*stderr)
	}
}

// TestCoverage checks the (ε, δ) contract: across many independent trials
// the fraction of estimates outside ±ε·truth must be consistent with δ.
// The failure budget is Chernoff-sized: with true failure rate δ = 0.1
// over 40 trials the chance of more than 12 failures is below 1e-4, so the
// test only fires on a genuinely broken interval.
func TestCoverage(t *testing.T) {
	base := seedBase(t)
	instances := []struct {
		name string
		p    pp.PP
		b    *structure.Structure
	}{
		{"K3/ER", cliquePP(t, 3), workload.GraphStructure(workload.ER(40, 0.25, 3))},
		{"K4/ER", cliquePP(t, 4), workload.GraphStructure(workload.ER(30, 0.35, 5))},
	}
	const (
		trials    = 40
		eps       = 0.1
		delta     = 0.1
		allowFail = 12
	)
	for ii, inst := range instances {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			truth := bigToF(exactCount(t, inst.p, inst.b))
			if truth == 0 {
				t.Fatal("degenerate instance: exact count is zero")
			}
			est := approx.New(inst.p)
			failures := 0
			for i := 0; i < trials; i++ {
				res, err := est.Count(context.Background(), inst.b, approx.Params{
					Epsilon: eps,
					Delta:   delta,
					Seed:    base + int64(1000*(ii+1)+i),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("trial %d did not converge within the default budget", i)
				}
				if rel := math.Abs(bigToF(res.Estimate)-truth) / truth; rel > eps {
					failures++
				}
			}
			if failures > allowFail {
				t.Fatalf("%d/%d trials missed ε=%.2f (budget %d at δ=%.2f) — interval is too tight",
					failures, trials, eps, allowFail, delta)
			}
		})
	}
}

// TestMultiComponentProduct checks the per-component factorization: on a
// formula whose Gaifman graph splits into two triangles the estimate of
// the product must track the product of the exact per-component counts.
func TestMultiComponentProduct(t *testing.T) {
	base := seedBase(t)
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.AddEdge(e[0], e[1])
	}
	p, err := pp.New(structure.AtomsOf(workload.GraphStructure(g)), []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if comps := p.Components(); len(comps) != 2 {
		t.Fatalf("expected 2 components, got %d", len(comps))
	}
	b := workload.GraphStructure(workload.ER(35, 0.3, 7))
	truth := bigToF(exactCount(t, p, b))
	if truth == 0 {
		t.Fatal("degenerate instance: exact count is zero")
	}

	res, err := approx.New(p).Count(context.Background(), b, approx.Params{
		Epsilon: 0.1,
		Delta:   0.05,
		Seed:    base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("product estimate did not converge within the default budget")
	}
	rel := math.Abs(bigToF(res.Estimate)-truth) / truth
	// The reported RelErr sums the per-component shares; the realized
	// error must respect the reported interval with slack for the trial.
	if rel > 3*res.RelErr+0.1 {
		t.Fatalf("product estimate off by %.3f, reported rel-error %.3f", rel, res.RelErr)
	}
}

// TestExactShortCircuits checks the paths that never sample: a provably
// empty answer set is exact zero, and a tuple-free formula is the exact
// power |B|^|S|.
func TestExactShortCircuits(t *testing.T) {
	// K3 against a triangle-free structure: GAC wipes out → exact 0.
	p := cliquePP(t, 3)
	star := workload.GraphStructure(workload.ER(12, 0, 1)) // edgeless
	res, err := approx.New(p).Count(context.Background(), star, approx.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Sign() != 0 || !res.Exact || !res.Converged || res.RelErr != 0 || res.Confidence != 1 {
		t.Fatalf("edgeless structure: want exact zero, got %+v", res)
	}

	// Two isolated liberal variables, no atoms: |φ(B)| = |B|².
	a := structure.New(workload.EdgeSig())
	for _, name := range []string{"x", "y"} {
		if _, err := a.AddElem(name); err != nil {
			t.Fatal(err)
		}
	}
	free, err := pp.New(structure.AtomsOf(a), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b := workload.GraphStructure(workload.ER(9, 0.4, 2))
	res, err = approx.New(free).Count(context.Background(), b, approx.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).SetInt64(81)
	if res.Estimate.Cmp(want) != 0 || !res.Exact {
		t.Fatalf("tuple-free formula: want exact %v, got %v (exact=%v)", want, res.Estimate, res.Exact)
	}
}

// TestSeedReproducibility checks that the same seed yields a bit-identical
// estimate and that distinct seeds explore distinct sample paths.
func TestSeedReproducibility(t *testing.T) {
	p := cliquePP(t, 3)
	b := workload.GraphStructure(workload.ER(40, 0.25, 3))
	est := approx.New(p)
	prm := approx.Params{Epsilon: 1e-9, MinSamples: 256, MaxSamples: 256, Seed: 42}
	r1, err := est.Count(context.Background(), b, prm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := est.Count(context.Background(), b, prm)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Estimate.Cmp(r2.Estimate) != 0 || r1.Samples != r2.Samples {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", r1.Estimate, r1.Samples, r2.Estimate, r2.Samples)
	}
	prm.Seed = 43
	r3, err := est.Count(context.Background(), b, prm)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Estimate.Cmp(r3.Estimate) == 0 {
		t.Fatalf("seeds 42 and 43 produced the identical estimate %v — RNG is not seeded", r1.Estimate)
	}
}

// TestSparseAnswerHonesty runs the estimator where importance sampling
// over arc-consistent domains is weakest: answers so sparse that most
// draws die and the live ones carry large, uneven weights (Dell–Roth,
// arXiv 1902.04960, locate the hardness of approximate answer counting
// exactly here).  The graphs are pinned — K5 on G(40, 0.3), two of whose
// seeds are clique-free, a sparse graph with one planted K5, two
// triangles on a graph with a handful of them, and an edgeless graph —
// and only the sampler seeds move with the matrix base.  The contract is
// cover or say so: an estimate may claim Converged only with the truth
// inside ±ε of it (up to the δ budget, sized as in TestCoverage: the 64
// trials on instances with answers, at a true failure rate of δ = 0.1,
// exceed 17 misses with probability below 1e-4); a zero is Exact only
// when the initial propagation proves it, otherwise it is an unconverged
// estimate with no relative bound; and MaxSamples bounds every sampled
// component's draws, hence the wall-clock.
func TestSparseAnswerHonesty(t *testing.T) {
	base := seedBase(t)
	k5 := cliquePP(t, 5)
	two := graph.New(6)
	two.AddClique([]int{0, 1, 2})
	two.AddClique([]int{3, 4, 5})
	twoK3, err := pp.New(structure.AtomsOf(workload.GraphStructure(two)), []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	planted := workload.ER(40, 0.1, 77)
	planted.AddClique([]int{3, 11, 19, 27, 35})

	type instance struct {
		name  string
		p     pp.PP
		g     *graph.Graph
		truth float64
	}
	var instances []instance
	cliqueFree := 0
	for s := int64(1); s <= 8; s++ {
		g := workload.ER(40, 0.3, s)
		truth := 120 * bigToF(g.CountCliques(5)) // 5! orderings per clique
		if truth == 0 {
			cliqueFree++
		}
		instances = append(instances, instance{"K5/ER(40,0.3," + strconv.FormatInt(s, 10) + ")", k5, g, truth})
	}
	if cliqueFree == 0 || cliqueFree == 8 {
		t.Fatalf("%d of 8 pinned graphs are K5-free: the matrix must mix both kinds", cliqueFree)
	}
	sparse := workload.ER(40, 0.08, 5)
	tri := 6 * bigToF(sparse.CountCliques(3))
	instances = append(instances,
		instance{"K5/planted", k5, planted, 120 * bigToF(planted.CountCliques(5))},
		instance{"2xK3/ER(40,0.08)", twoK3, sparse, tri * tri},
		instance{"K5/edgeless", k5, graph.New(12), 0},
	)
	if instances[8].truth != 120 || tri == 0 {
		t.Fatalf("pinned inputs drifted: planted K5 count %v (want 120), triangles %v (want > 0)", instances[8].truth, tri)
	}

	const (
		trials     = 8
		eps        = 0.1
		delta      = 0.1
		maxSamples = 8192
		allowMiss  = 17
	)
	confident, misses := 0, 0
	for ii, inst := range instances {
		b := workload.GraphStructure(inst.g)
		sampled, proven := 0, false
		for _, comp := range inst.p.Components() {
			if len(comp.S) > 0 && comp.A.NumAtoms() > 0 {
				sampled++
				proven = proven || hom.NewSampler(comp.A, b, comp.S, hom.Options{}).ExactZero()
			}
		}
		est := approx.New(inst.p)
		for i := 0; i < trials; i++ {
			res, err := est.Count(context.Background(), b, approx.Params{
				Epsilon: eps, Delta: delta, MaxSamples: maxSamples,
				Seed: base + int64(5000+100*ii+i),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Samples > sampled*maxSamples {
				t.Fatalf("%s trial %d: %d draws over %d sampled components capped at %d each", inst.name, i, res.Samples, sampled, maxSamples)
			}
			if res.Exact != proven {
				t.Fatalf("%s trial %d: Exact=%v, but the initial propagation proves zero: %v", inst.name, i, res.Exact, proven)
			}
			got := bigToF(res.Estimate)
			switch {
			case res.Exact:
				if got != 0 || inst.truth != 0 || res.Samples != 0 {
					t.Fatalf("%s trial %d: exact result %+v, truth %v", inst.name, i, res, inst.truth)
				}
			case got == 0:
				// Every draw died: nothing was learnt about the scale.
				if res.Converged || res.RelErr != 1 || res.Confidence != 1-delta {
					t.Fatalf("%s trial %d: an all-dead sample must be unconverged with rel-error 1: %+v", inst.name, i, res)
				}
			case inst.truth == 0:
				t.Fatalf("%s trial %d: estimate %v on an instance with no answer", inst.name, i, res.Estimate)
			case res.Converged:
				confident++
				if res.RelErr > eps {
					t.Fatalf("%s trial %d: Converged with rel-error %v > ε", inst.name, i, res.RelErr)
				}
				if math.Abs(got-inst.truth) > eps*inst.truth {
					misses++
				}
			}
		}
	}
	t.Logf("%d converged estimates, %d outside ε", confident, misses)
	if confident < 40 {
		t.Fatalf("only %d trials converged: the matrix no longer exercises the confident path", confident)
	}
	if misses > allowMiss {
		t.Fatalf("%d of %d converged estimates miss ε=%.2f (budget %d at δ=%.2f) — confident wrong intervals",
			misses, confident, eps, allowMiss, delta)
	}
}

// TestOneDrawBudget checks the smallest budget: one draw has no sample
// variance, so the estimate — live or dead — is unconverged with an
// interval as wide as itself, not a NaN the wire cannot encode.
func TestOneDrawBudget(t *testing.T) {
	base := seedBase(t)
	p := cliquePP(t, 3)
	b := workload.GraphStructure(workload.ER(40, 0.25, 3))
	est := approx.New(p)
	live := 0
	for i := int64(0); i < 20; i++ {
		res, err := est.Count(context.Background(), b, approx.Params{MaxSamples: 1, Seed: base + 7000 + i})
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged || res.Exact || res.Samples != 1 || res.RelErr != 1 {
			t.Fatalf("seed %d: one-draw estimate %+v, want unconverged with rel-error 1", i, res)
		}
		if res.Estimate.Sign() > 0 {
			live++
		}
	}
	if live == 0 {
		t.Fatal("no live draw in 20 seeds: the single-draw variance path was not reached")
	}
}
