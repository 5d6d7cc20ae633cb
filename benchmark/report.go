package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp says where and on what a report was measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the checkout's git commit, "unknown" outside a git
	// repository (the driver's checkouts are plain directories).
	Commit string `json:"commit"`
}

func stampEnv() envStamp {
	st := envStamp{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				st.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	return st
}

// report is the one output schema, written by the tool only.
type report struct {
	Env     envStamp `json:"env"`
	Seed    int64    `json:"seed"`
	Clients int      `json:"clients"`
	Seconds float64  `json:"seconds"`
	Quick   bool     `json:"quick,omitempty"`
	// Claim is always null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`
	// E2E[workload][metric] are the end-to-end metrics (tracing off);
	// Layers[workload][metric] the per-layer metrics of the traced run.
	E2E    map[string]map[string]metric `json:"e2e,omitempty"`
	Layers map[string]map[string]metric `json:"layers,omitempty"`
	// Runs[workload] carries sample counts, op counts by class, oracle
	// coverage and failures of the end-to-end run.
	Runs map[string]runInfo `json:"runs,omitempty"`
	// Bounds repeats the regression bound of every end-to-end metric.
	Bounds map[string]float64 `json:"bounds"`
}

func newReport(opt options) *report {
	r := &report{
		Env: stampEnv(), Seed: opt.seed, Clients: clients, Seconds: opt.seconds, Quick: opt.quick,
		E2E:    make(map[string]map[string]metric),
		Layers: make(map[string]map[string]metric),
		Runs:   make(map[string]runInfo),
		Bounds: make(map[string]float64),
	}
	for _, d := range endToEnd {
		r.Bounds[d.Name] = d.Bound
	}
	return r
}

// write stores the report as indented JSON at path.
func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable renders the report for a human: one end-to-end row per
// workload, then the per-layer metrics that are not zero.
func (r *report) printTable(w io.Writer) {
	fmt.Fprintf(w, "epserved benchmark — seed %d, %d clients (closed loop), %gs per workload, %s, %d cores (GOMAXPROCS %d), %s, commit %s\n",
		r.Seed, r.Clients, r.Seconds, r.Env.CPUModel, r.Env.NProc, r.Env.GoMaxProcs, r.Env.GoVersion, r.Env.Commit)
	if len(r.E2E) > 0 {
		fmt.Fprintf(w, "\n%-12s %12s %10s %10s %8s %12s %10s %9s %10s %10s %9s\n",
			"workload", "ops_per_s", "p50_ms", "p99_ms", "samples", "cpu_ms/op", "rss_mb", "setup_s", "host_speed", "fail_share", "correct")
		for _, sp := range specs {
			m, ok := r.E2E[sp.name]
			if !ok {
				continue
			}
			ri := r.Runs[sp.name]
			fmt.Fprintf(w, "%-12s %12.1f %10.4f %10.4f %8d %12.5f %10.1f %9.3f %10.3f %10.5f %9v\n",
				sp.name, m["ops_per_s"].Value, m["p50_ms"].Value, m["p99_ms"].Value, ri.Samples,
				m["server_cpu_ms_per_op"].Value, m["peak_rss_mb"].Value, m["setup_s"].Value, ri.HostSpeed, ri.FailShare, ri.Correct)
		}
		fmt.Fprintln(w, "units: ops_per_s 1/s · p50_ms, p99_ms, cpu_ms/op (server_cpu_ms_per_op) ms · rss_mb (peak_rss_mb) MB · setup_s s · host_speed, fail_share ratio")
		fmt.Fprintln(w, "ops_per_s, p50_ms, p99_ms and cpu_ms/op are in quiet-reference-host time: the clock's reading (runs[workload].raw in the report) scaled by host_speed, the control's verdict on the host during the run")
		for _, sp := range specs {
			ri, ok := r.Runs[sp.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-12s ops %s | oracle %s | median of %d windows, p99 with %d samples beyond it in each", sp.name, countsString(ri.Ops), countsString(ri.Oracle), ri.Windows, ri.P99Beyond)
			if sp.name == "approx-hard" {
				fmt.Fprintf(w, " | estimate-miss share %.4f (valid ≤ %.2f)", ri.ApproxMissShare, 2*approxDelta)
			}
			fmt.Fprintln(w)
			for _, f := range ri.Failures {
				fmt.Fprintf(w, "%-12s FAILURE: %s\n", sp.name, f)
			}
		}
	}
	for _, sp := range specs {
		m, ok := r.Layers[sp.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\nper-layer metrics, %s (traced run; layers the workload never enters read 0 and are not listed)\n", sp.name)
		for _, name := range layerNames {
			if v := m[name]; v.Value != 0 {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, v.Value, v.Unit)
			}
		}
	}
}

func countsString(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// contractLine is the driver's result line for one workload run: the
// last line of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checkRepeats compares repeated runs of the same build.  Nothing
// changed between them, so any end-to-end metric that moved by more
// than its bound, in either direction, shows a run-to-run spread the
// bound cannot resolve: it is listed as unresolved (never as
// unchanged), and the check fails.
func checkRepeats(w io.Writer, runs []*report) bool {
	ok := true
	for _, sp := range specs {
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			n := 0
			for _, r := range runs {
				m, have := r.E2E[sp.name]
				if !have {
					continue
				}
				v := m[d.Name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				n++
			}
			if n < 2 {
				continue
			}
			spread := (hi - lo) / lo
			verdict := "within bound"
			if spread > d.Bound {
				verdict = "UNRESOLVED (spread exceeds the bound)"
				ok = false
			}
			fmt.Fprintf(w, "check %-12s %-22s min %12.5f max %12.5f spread %6.2f%% bound %5.1f%% %s\n",
				sp.name, d.Name, lo, hi, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok
}
