package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}, {0, 1}, {0.05, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	// 1000 samples is the smallest count at which p99 has ten samples
	// beyond it.
	for _, tc := range []struct{ n, want int }{{1000, 10}, {999, 9}, {100, 1}, {1, 0}, {0, 0}} {
		if got := samplesBeyond(tc.n, 99); got != tc.want {
			t.Errorf("samplesBeyond(%d, 99) = %d, want %d", tc.n, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		// Two overlapping children (a parallel fan-out) cover [10,50].
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 50},
		// A child that outlives its parent is clipped to it: [90,100].
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 130},
		// A grandchild does not count against the root.
		{ID: 5, Parent: 2, StartNS: 12, EndNS: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 22, 3: 20, 4: 40, 5: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestOpListsAreDeterministic(t *testing.T) {
	for _, sp := range specs {
		a := newInstance(sp, 7, true)
		b := newInstance(sp, 7, true)
		c := newInstance(sp, 8, true)
		la, lb, lc := opListJSON(a, 300), opListJSON(b, 300), opListJSON(c, 300)
		if len(la) == 0 {
			t.Errorf("%s: empty op list", sp.name)
		}
		if !bytes.Equal(la, lb) {
			t.Errorf("%s: same seed gave different op lists", sp.name)
		}
		if bytes.Equal(la, lc) {
			t.Errorf("%s: different seeds gave the same op list", sp.name)
		}
		for i := range a.facts {
			if a.facts[i] != b.facts[i] {
				t.Errorf("%s: same seed gave different structure %s", sp.name, a.names[i])
			}
		}
	}
}

// opListJSON renders the first n ops as JSON lines: the byte-exact form
// the determinism guarantee (same seed ⇒ same op list) is stated over.
func opListJSON(inst *instance, n int) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n && inst.has(i); i++ {
		_ = enc.Encode(inst.gen(i))
	}
	return buf.Bytes()
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

func TestDriveIssuesExactlyNOpsOnTwoConnections(t *testing.T) {
	inst := newInstance(specByName("warm-read"), 3, true)
	if err := inst.prepareOracle(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	var requests atomic.Int64
	inner := serve.New(serve.Config{}).Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(w, r)
	})}
	go func() { _ = hs.Serve(cl) }()
	defer hs.Close()

	hc := newHTTPClient(clients)
	e := &env{inst: inst, fleet: &fleet{}, hc: hc, cl: serve.NewClient("http://"+ln.Addr().String(), hc)}
	ctx := context.Background()
	if err := e.load(ctx); err != nil {
		t.Fatal(err)
	}
	before := requests.Load()
	const n = 500
	res := drive(ctx, e, clients, time.Hour, n)
	if res.attempted != n || len(res.log.latMS) != n {
		t.Errorf("drive issued %d ops (%d latencies), want exactly %d", res.attempted, len(res.log.latMS), n)
	}
	if got := requests.Load() - before; got != n {
		t.Errorf("server saw %d requests, want %d", got, n)
	}
	if res.log.failed != 0 {
		t.Errorf("%d ops failed: %v", res.log.failed, res.log.failures)
	}
	if got := cl.accepted.Load(); got > clients {
		t.Errorf("load generator opened %d connections, want at most %d", got, clients)
	}
}

func TestControlSlicesTheClosedLoop(t *testing.T) {
	if got := hostSpeed(controlRoundTrip, nil); got != 1 {
		t.Errorf("host speed of a run without control = %v, want 1", got)
	}
	// A host on which the control takes twice its nominal time runs at
	// half speed.
	if got := hostSpeed(controlCompute, []float64{9, 2 * controlNominalMS[controlCompute], 0.01}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("host speed = %v, want 0.5", got)
	}

	inst := newInstance(specByName("warm-read"), 3, true)
	if err := inst.prepareOracle(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e, err := setupEnv(ctx, launcher{control: true}, inst, t.TempDir(), clients)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	const d = 400 * time.Millisecond
	res := drive(ctx, e, clients, d, 0)
	if res.log.failed != 0 {
		t.Errorf("%d ops failed: %v", res.log.failed, res.log.failures)
	}
	if len(res.ctlMS) == 0 || res.attempted == 0 {
		t.Fatalf("%d control round trips beside %d ops, want both", len(res.ctlMS), res.attempted)
	}
	// The control has a fifth of every cycle; the workload's wall-clock
	// is what is left.
	if res.elapsed >= d || res.elapsed < d/2 {
		t.Errorf("workload wall-clock %v of a %v loop, want about four fifths", res.elapsed, d)
	}
}

func TestMedianWindowIgnoresAnEpisode(t *testing.T) {
	// Three one-second windows of 1000 ops at 1 ms on two clients, the
	// control at its nominal time; in the middle one the host runs at
	// half speed (ops and control take twice as long) and a hundredth of
	// the ops stall for 50 ms.
	nominal := controlNominalMS[controlRoundTrip]
	var res driveResult
	res.loop = 3 * time.Second
	cpu := []cpuSample{{0, 0}}
	for w := 0; w < 3; w++ {
		slow := 1.0
		if w == 1 {
			slow = 2
		}
		for i := 0; i < 1000; i++ {
			lat := slow
			if w == 1 && i%50 == 0 {
				lat = 50
			}
			res.log.latMS = append(res.log.latMS, lat)
			res.log.endMS = append(res.log.endMS, float64(w)*1000+float64(i))
			res.attempted++
		}
		for i := 0; i < 100; i++ {
			res.ctlMS = append(res.ctlMS, slow*nominal)
			res.ctlEndMS = append(res.ctlEndMS, float64(w)*1000+float64(i))
		}
		cpu = append(cpu, cpuSample{float64(w+1) * 1000, cpu[w].cpu + time.Duration(slow*float64(time.Second))})
	}
	ws := windowsOf(res, controlRoundTrip, clients, cpu)
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3 of a second each", len(ws))
	}
	if got := ws[1].speed; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed of the slow window = %v, want 0.5", got)
	}
	raw, scaled, speed := medianWindow(ws)
	if speed != 1 {
		t.Errorf("median speed = %v, want 1", speed)
	}
	for name, want := range map[string]float64{"p50_ms": 1, "p99_ms": 1, "server_cpu_ms_per_op": 1} {
		if math.Abs(scaled[name]-want) > 1e-9 || math.Abs(raw[name]-want) > 1e-9 {
			t.Errorf("%s = %v (clock %v), want the quiet windows' %v", name, scaled[name], raw[name], want)
		}
	}
	// 1000 ops in a second less the control's 100 × nominal ms shared by
	// two clients.
	if want := 1000 / (1 - 100*nominal/2/1000); math.Abs(scaled["ops_per_s"]-want) > 1e-6 {
		t.Errorf("ops_per_s = %v, want %v", scaled["ops_per_s"], want)
	}
	// The slow window itself scales back to the quiet ones but for its
	// tail.
	if got := ws[1].p50MS * ws[1].speed; math.Abs(got-1) > 1e-9 {
		t.Errorf("slow window's p50 in reference time = %v, want 1", got)
	}

	// A workload too slow for windows of a thousand ops is one window.
	if got := windowSeconds(900, 14*time.Second); got != 14 {
		t.Errorf("window of a 900-op run = %d s, want the whole 14", got)
	}
	if got := windowSeconds(5000, 14*time.Second); got != 3 {
		t.Errorf("window of a 5000-op run = %d s, want 3", got)
	}
}

func TestClosedFormOracleMatchesFPT(t *testing.T) {
	b := workload.RandomStructure(workload.EdgeSig(), 30, 0.15, 5)
	g := digraphOf(b)
	for text, got := range map[string]int64{qTri: g.triangles(), qC4: g.fourCycles()} {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fptCount(q, b)
		if err != nil {
			t.Fatal(err)
		}
		if !want.IsInt64() || want.Int64() != got {
			t.Errorf("closed form of %q = %d, FPT oracle says %v", text, got, want)
		}
	}
}

func TestCheckRepeatsFlagsSpreadBeyondBound(t *testing.T) {
	mk := func(ops float64) *report {
		r := newReport(options{})
		m := make(map[string]metric)
		for _, d := range endToEnd {
			m[d.Name] = metric{Value: 1, Unit: d.Unit}
		}
		m["ops_per_s"] = metric{Value: ops, Unit: "1/s"}
		r.E2E["warm-read"] = m
		return r
	}
	if !checkRepeats(io.Discard, []*report{mk(100), mk(101)}) {
		t.Error("a 1% spread was reported as unresolved")
	}
	var out bytes.Buffer
	if checkRepeats(&out, []*report{mk(100), mk(150)}) {
		t.Error("a 50% spread passed the check")
	}
	if !bytes.Contains(out.Bytes(), []byte("UNRESOLVED")) {
		t.Errorf("spread beyond the bound not listed as unresolved:\n%s", out.String())
	}
}

// TestQuickSmoke runs every workload end to end and traced with tiny
// inputs and in-process servers, so tier-1 `go test ./...` keeps the
// harness compiling and running.
func TestQuickSmoke(t *testing.T) {
	ctx := context.Background()
	opt := options{seed: 1, seconds: 0.25, quick: true, outDir: t.TempDir()}
	for _, sp := range specs {
		m, info, err := runE2E(ctx, sp, opt)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !info.Correct || info.Attempted < 1 || info.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", sp.name, info.Correct, info.Attempted, info.Failed, info.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := m[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", sp.name, d.Name, v)
			}
		}
		if len(m) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", sp.name, len(m), len(endToEnd))
		}
		if info.ControlSamples == 0 || m["p50_ms"].Value != info.Raw["p50_ms"]*info.HostSpeed {
			t.Errorf("%s: %d control samples, p50 %v from raw %v at host speed %v", sp.name, info.ControlSamples, m["p50_ms"].Value, info.Raw["p50_ms"], info.HostSpeed)
		}

		topt := opt
		topt.seconds = 0.5
		res, spans, err := runTraced(ctx, sp, topt)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s traced: attempted=%d failed=%d %v", sp.name, res.attempted, res.failed, res.failures)
		}
		if len(spans) == 0 {
			t.Errorf("%s traced: no spans", sp.name)
		}
		for _, d := range layerDefs {
			if v, ok := res.metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s traced: per-layer metric %s = %+v", sp.name, d.name, v)
			}
		}
		if len(res.metrics) != len(layerDefs) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", sp.name, len(res.metrics), len(layerDefs))
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the driver
// reads, in step with the tables this package measures by.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if want := []string{"go", "run", "./benchmark"}; len(bj.Command) != len(want) || bj.Command[0] != want[0] || bj.Command[1] != want[1] || bj.Command[2] != want[2] {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the tool's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bj.Workloads[i].Name != sp.name || bj.Workloads[i].Why != sp.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, bj.Workloads[i], sp.name, sp.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d = %+v, want %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics, want %d", len(bj.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d = %+v, want %+v", i, got, d)
		}
	}
}
