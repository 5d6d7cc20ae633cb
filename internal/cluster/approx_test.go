package cluster

import (
	"context"
	"errors"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

const triQuery = "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"

// erFacts renders an ER graph as a fact file.
func erFacts(t *testing.T, n int, p float64, seed int64) string {
	t.Helper()
	facts, err := workload.GraphStructure(workload.ER(n, p, seed)).FactsString()
	if err != nil {
		t.Fatal(err)
	}
	return facts
}

// TestClusterApproxRoundTrip drives mode=approx through the coordinator:
// the estimate schema survives routing, the estimate lands near the
// routed exact count, and a fixed seed is reproducible across requests.
// The exact count runs on a twin of "g": on "g" itself approx mode would
// answer from the count memo.
func TestClusterApproxRoundTrip(t *testing.T) {
	f := startFleet(t, 3)
	_, cc := startCoordinator(t, f, 2)
	ctx := context.Background()

	for _, name := range []string{"g", "twin"} {
		if _, err := cc.CreateStructure(ctx, name, erFacts(t, 40, 0.25, 3), nil); err != nil {
			t.Fatal(err)
		}
	}
	exact, _, err := cc.Count(ctx, triQuery, "twin")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Sign() == 0 {
		t.Fatal("degenerate instance: exact count is zero")
	}

	est, resp, err := cc.CountApprox(ctx, triQuery, "g", 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Estimate != resp.Count || resp.Estimate == "" {
		t.Fatalf("estimate %q must mirror count %q through the router", resp.Estimate, resp.Count)
	}
	if resp.Case != "sharp-clique" && resp.Case != "clique" {
		t.Fatalf("routed case = %q, want a hard case", resp.Case)
	}
	if resp.Samples == 0 || resp.RelError <= 0 || resp.Confidence != 0.95 || resp.Converged == nil || !*resp.Converged {
		t.Fatalf("routed approx telemetry missing: %+v", resp)
	}
	ef, _ := new(big.Float).SetInt(exact).Float64()
	gf, _ := new(big.Float).SetInt(est).Float64()
	if rel := (gf - ef) / ef; rel > 0.3 || rel < -0.3 {
		t.Fatalf("routed estimate %v too far from exact %v", est, exact)
	}

	req := serve.CountRequest{Query: triQuery, Structure: "g", Mode: "approx", Seed: 9}
	e1, _, err := cc.CountWith(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := cc.CountWith(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cmp(e2) != 0 {
		t.Fatalf("seeded routed estimate diverged: %v vs %v", e1, e2)
	}

	// A capped estimate's converged=false crosses the router.
	req.MaxSamples = 1
	if _, capped, err := cc.CountWith(ctx, req); err != nil || capped.Converged == nil || *capped.Converged {
		t.Fatalf("routed max_samples=1 must answer converged=false: %+v, %v", capped, err)
	}
}

// TestClusterApproxBatchArrays checks the scatter-gather batch path
// carries the per-structure approx arrays back through the coordinator.
// The exact counts run on twins of the structures, so that the capped
// batch at the end samples rather than answering from the count memo.
func TestClusterApproxBatchArrays(t *testing.T) {
	f := startFleet(t, 3)
	_, cc := startCoordinator(t, f, 1)
	ctx := context.Background()

	names := []string{"b1", "b2", "b3", "b4"}
	for i, name := range names {
		for _, n := range []string{name, "twin-" + name} {
			if _, err := cc.CreateStructure(ctx, n, erFacts(t, 28+2*i, 0.25, int64(i+1)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	ests, resp, err := cc.CountBatchWith(ctx, serve.CountBatchRequest{
		Query: triQuery, Structures: names, Mode: "approx", Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != len(names) || len(resp.Estimates) != len(names) ||
		len(resp.RelErrors) != len(names) || len(resp.Confidences) != len(names) ||
		len(resp.Cases) != len(names) || len(resp.Samples) != len(names) ||
		len(resp.Converged) != len(names) {
		t.Fatalf("approx batch arrays misaligned: %+v", resp)
	}
	for i := range names {
		if resp.Estimates[i] != resp.Counts[i] {
			t.Fatalf("structure %d: estimate %q != count %q", i, resp.Estimates[i], resp.Counts[i])
		}
		if resp.Cases[i] == "" || resp.Samples[i] == 0 || !resp.Converged[i] {
			t.Fatalf("structure %d: missing approx telemetry: case=%q samples=%d converged=%v",
				i, resp.Cases[i], resp.Samples[i], resp.Converged[i])
		}
		exact, _, err := cc.Count(ctx, triQuery, "twin-"+names[i])
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := new(big.Float).SetInt(exact).Float64()
		gf, _ := new(big.Float).SetInt(ests[i]).Float64()
		if ef == 0 {
			continue
		}
		if rel := (gf - ef) / ef; rel > 0.4 || rel < -0.4 {
			t.Fatalf("structure %d: routed estimate %v too far from exact %v", i, ests[i], exact)
		}
	}

	// Capped, every slot of the scatter says converged=false.
	_, capped, err := cc.CountBatchWith(ctx, serve.CountBatchRequest{
		Query: triQuery, Structures: names, Mode: "approx", Seed: 11, MaxSamples: 1,
	})
	if err != nil || len(capped.Converged) != len(names) {
		t.Fatalf("capped approx batch: %+v, %v", capped, err)
	}
	for i, conv := range capped.Converged {
		if conv {
			t.Fatalf("structure %d: max_samples=1 answered converged=true", i)
		}
	}
}

// TestClusterApproxFailover kills the replica an approx read is pinned
// to and checks the estimate fails over to the surviving replica — and,
// being seeded, reproduces the pre-failure estimate bit-for-bit.
func TestClusterApproxFailover(t *testing.T) {
	f := startFleet(t, 2)
	co, cc := startCoordinator(t, f, 2)
	ctx := context.Background()

	if _, err := cc.CreateStructure(ctx, "g", erFacts(t, 30, 0.3, 5), nil); err != nil {
		t.Fatal(err)
	}
	req := serve.CountRequest{Query: triQuery, Structure: "g", Mode: "approx", Seed: 21}
	v0, r0, err := cc.CountWith(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Samples == 0 {
		t.Fatalf("expected a sampled estimate before failover: %+v", r0)
	}

	owners, start := co.replicaAt(triQuery, "g")
	for i, url := range f.urls {
		if url == owners[start] {
			f.ts[i].Close()
		}
	}

	v1, r1, err := cc.CountWith(ctx, req)
	if err != nil {
		t.Fatalf("approx count after shard death: %v", err)
	}
	if v1.Cmp(v0) != 0 {
		t.Fatalf("failover estimate = %v, want the seeded %v", v1, v0)
	}
	if r1.Case != r0.Case || r1.Samples != r0.Samples {
		t.Fatalf("failover telemetry drifted: %+v vs %+v", r1, r0)
	}
}

// TestClusterHardExactAdmissionPassthrough runs shards with an exact
// admission limit and checks the typed 422 (with its trichotomy case)
// crosses the coordinator unchanged — and is NOT treated as a failover
// trigger, since every replica would reject identically.
func TestClusterHardExactAdmissionPassthrough(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{HardExactLimit: 5})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	co, err := New(Config{Shards: urls, Replicas: 2, VNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	cc := serve.NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := cc.CreateStructure(ctx, "g", erFacts(t, 30, 0.3, 5), nil); err != nil {
		t.Fatal(err)
	}
	_, _, err = cc.Count(ctx, triQuery, "g")
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want routed *APIError, got %T: %v", err, err)
	}
	if ae.Status != http.StatusUnprocessableEntity {
		t.Fatalf("routed status = %d, want 422", ae.Status)
	}
	if ae.Case != "sharp-clique" && ae.Case != "clique" {
		t.Fatalf("routed rejection lost its case: %q", ae.Case)
	}

	// Approx mode crosses the same admission gate.
	if _, _, err := cc.CountApprox(ctx, triQuery, "g", 0.1, 0.05); err != nil {
		t.Fatalf("approx mode rejected through the router: %v", err)
	}
}
