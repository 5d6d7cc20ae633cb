package main

import (
	"context"
	"fmt"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef fixes an end-to-end metric's unit, direction and regression
// bound.  BENCHMARK.json repeats this table for the driver;
// TestBenchmarkJSONMatchesCode keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the service sees, the same six on
// every workload.  The share of failed ops (transport errors, non-2xx,
// wrong or unconverged answers, acknowledged-but-lost batches) is
// reported as failed/attempted beside them, not among them: it is 0 on
// a healthy build, and a bounded metric must never be 0.
//
// Every bound is a quarter.  On the reference sandbox (a 2-vCPU
// microVM) the same build repeats the time-based metrics to within
// 3–7 % in a quiet quarter of an hour and 10–20 % in a busy one — the
// CPU's own speed drifts, server_cpu_ms_per_op with it — so a tighter
// bound would flag the host, not the change.  That is as the clock reads
// them; every measured run also carries a control that takes most of the
// host out again (control.go).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// approxJudgeFrom is the number of estimates from which approx-hard's
// miss share is judged against 2δ: below it one unlucky estimate decides
// (a smoke run makes a handful).
const approxJudgeFrom = 100

// setupRepeats is how many times a measured run sets its fleet up; the
// median is reported as setup_s, so one slow boot (the first run of a
// checkout also compiles epserved) does not decide the metric.
const setupRepeats = 3

// runInfo is everything about one workload run that is not a metric.
type runInfo struct {
	Seed      int64 `json:"seed"`
	Correct   bool  `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	// Samples is the number of latency samples behind p50/p99, Windows
	// the number of windows they were judged in (window.go), and
	// P99Beyond how many of a window's samples lie above its p99 rank.
	Samples   int `json:"samples"`
	Windows   int `json:"windows"`
	P99Beyond int `json:"p99_beyond"`
	// FailShare is failed ÷ attempted.
	FailShare float64 `json:"fail_share"`
	// Ops counts the timed ops by class; Oracle counts checked ops by
	// the oracle that covered them.
	Ops    map[string]int `json:"ops"`
	Oracle map[string]int `json:"oracle"`
	// MeasuredS is the wall-clock the workload's ops had: the closed
	// loop's duration less its control slices.
	MeasuredS float64 `json:"measured_s"`
	// HostSpeed is the median window's speed factor, from ControlSamples
	// control ops in all (1 = the quiet reference host), and Raw the
	// time-based metrics before it was applied, with p99_ms_run, the p99
	// of the whole run's samples.
	HostSpeed      float64            `json:"host_speed"`
	ControlSamples int                `json:"control_samples"`
	Raw            map[string]float64 `json:"raw"`
	// ApproxMissShare is the share of estimates outside ε of the exact
	// count (approx-hard; the workload is valid only at ≤ 2δ).
	ApproxMissShare float64  `json:"approx_miss_share,omitempty"`
	Failures        []string `json:"failures,omitempty"`
}

// options are the knobs shared by the measured and the traced run.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	// outDir holds the built binary, durable data directories and the
	// written reports.
	outDir string
}

// launcherFor returns the measured run's launcher: child processes of a
// freshly built epserved, or in-process nodes under -quick.
func launcherFor(opt options) (launcher, error) {
	if opt.quick {
		return launcher{control: true}, nil
	}
	bin, err := buildServer(opt.outDir + "/bin")
	return launcher{bin: bin, control: true}, err
}

// runE2E measures one workload end to end with tracing off.
func runE2E(ctx context.Context, sp *spec, opt options) (map[string]metric, runInfo, error) {
	info := runInfo{Seed: opt.seed}
	inst := newInstance(sp, opt.seed, opt.quick)
	if err := inst.prepareOracle(); err != nil {
		return nil, info, err
	}

	repeats := setupRepeats
	if opt.quick {
		repeats = 1
	}
	var (
		e      *env
		setupS []float64
	)
	for r := 0; r < repeats; r++ {
		if e != nil {
			e.stop()
		}
		t0 := time.Now()
		// Building is part of set-up: the binary is the checkout's own
		// source, and a no-op rebuild costs what it costs.
		ln, err := launcherFor(opt)
		if err != nil {
			return nil, info, err
		}
		e, err = setupEnv(ctx, ln, inst, opt.outDir, clients)
		if err != nil {
			return nil, info, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { e.stop() }()

	sampler := startCPUSampler(e.fleet)
	res := drive(ctx, e, clients, time.Duration(opt.seconds*float64(time.Second)), 0)
	cpu, err := sampler.stop()
	if err != nil {
		return nil, info, err
	}
	rss, err := e.fleet.peakRSS()
	if err != nil {
		return nil, info, err
	}

	log := &res.log
	valid := true
	switch sp.name {
	case "cold-query":
		log.verifyCold(inst)
	case "append-mix":
		log.verifyAppends(ctx, e)
	case "approx-hard":
		info.ApproxMissShare = share(float64(log.approxMiss), float64(log.approxN))
		if log.approxN >= approxJudgeFrom && info.ApproxMissShare > 2*approxDelta {
			valid = false
			log.failures = append(log.failures, fmt.Sprintf("estimate-miss share %.3f > 2δ = %.2f: workload invalid", info.ApproxMissShare, 2*approxDelta))
		}
	}

	info.Attempted = res.attempted
	info.Failed = log.failed
	if info.Failed > info.Attempted {
		info.Failed = info.Attempted
	}
	info.Correct = valid && info.Failed == 0 && info.Attempted > 0
	info.Samples = len(log.latMS)
	info.FailShare = share(float64(info.Failed), float64(info.Attempted))
	info.Oracle = log.coverage
	info.Failures = log.failures
	info.MeasuredS = res.elapsed.Seconds()
	info.Ops = make(map[string]int)
	for _, c := range log.classes {
		info.Ops[c]++
	}

	// The time-based metrics are the median window's (window.go): as the
	// clock read them (Raw), and in quiet-reference-host time.
	ws := windowsOf(res, sp.control, clients, cpu)
	raw, scaled, speed := medianWindow(ws)
	info.Raw, info.HostSpeed, info.Windows, info.ControlSamples = raw, speed, len(ws), len(res.ctlMS)
	info.P99Beyond = samplesBeyond(info.Samples/len(ws), 99)
	info.Raw["p99_ms_run"] = percentile(sortedCopy(log.latMS), 99)
	m := map[string]metric{
		"ops_per_s":            {scaled["ops_per_s"] * (1 - info.FailShare), "1/s"},
		"p50_ms":               {scaled["p50_ms"], "ms"},
		"p99_ms":               {scaled["p99_ms"], "ms"},
		"server_cpu_ms_per_op": {scaled["server_cpu_ms_per_op"], "ms"},
		"peak_rss_mb":          {rss, "MB"},
		"setup_s":              {median(setupS), "s"},
	}
	return m, info, nil
}
