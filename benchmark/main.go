// Command benchmark is the pinned benchmark of epserved: six workloads,
// six end-to-end metrics, one command, one output schema.
//
//	go run ./benchmark -seed 1 -out bench-out/run.json           # all six workloads, end to end
//	go run ./benchmark -trace 1 -out bench-out/layers.json       # the traced run: per-layer metrics
//	go run ./benchmark -workload cold-exec -seed 7 -seconds 10   # one workload
//	go run ./benchmark -repeat 2 -check                          # same build twice, must agree
//	go run ./benchmark -quick                                    # smoke: tiny sizes, in-process servers
//
// It runs from the checkout root.  With -trace 0 it builds
// ./cmd/epserved, runs each workload against real child processes over
// loopback HTTP, and checks every response; with -trace 1 it replays
// each workload in-process on a ladder of entry points and derives the
// per-layer metrics.  With a single -workload the last line of standard
// output is the result object the benchmark driver reads.  See
// README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeed and defaultSeconds are what BENCHMARK.json pins.
const (
	defaultSeed    = 1
	defaultSeconds = 14
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all six, one after another)")
		seed         = flag.Int64("seed", defaultSeed, "workload seed: the same seed generates byte-identical inputs and op lists")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace        = flag.Int("trace", 0, "0: end-to-end run against child epserved processes; 1: traced in-process run producing the per-layer metrics")
		out          = flag.String("out", "", "report path (default bench-out/run.json, or bench-out/layers.json with -trace 1)")
		quick        = flag.Bool("quick", false, "smoke run: tiny inputs, in-process servers, nothing built")
		repeat       = flag.Int("repeat", 1, "run the selection this many times")
		check        = flag.Bool("check", false, "with -repeat ≥ 2: fail if an end-to-end metric differs between repeats by more than its bound")
		controlSrv   = flag.Bool("control-server", false, "internal: be the host-speed control server of a measured run")
	)
	flag.Parse()
	if *controlSrv {
		fatal(serveControl())
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	selected := specs
	if *workloadName != "" && *workloadName != "all" {
		sp := specByName(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		selected = []*spec{sp}
	}
	// The benchmark runs from the checkout root: it builds ./cmd/epserved
	// and keeps everything it writes under ./bench-out.
	if _, err := os.Stat("cmd/epserved"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the root of an epserved checkout (cmd/epserved not found)")
		os.Exit(1)
	}
	if *quick {
		// A smoke run measures for half a second unless told otherwise.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = 0.5
		}
	}
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, outDir: "bench-out"}
	if *out == "" {
		*out = filepath.Join(opt.outDir, "run.json")
		if *trace == 1 {
			*out = filepath.Join(opt.outDir, "layers.json")
		}
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fatal(err)
	}

	// Children carry Pdeathsig, so they die with this process; a signal
	// still gets an orderly teardown through the cancelled context.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var (
		runs  []*report
		spans []span // of every traced workload, written once at exit
		last  contractLine
		ok    = true
	)
	for rep := 0; rep < *repeat; rep++ {
		r := newReport(opt)
		for _, sp := range selected {
			if *trace == 1 {
				layers, sps, err := runTraced(ctx, sp, opt)
				if err != nil {
					fatal(err)
				}
				r.Layers[sp.name] = layers.metrics
				spans = append(spans, sps...)
				last = contractLine{Correct: layers.failed == 0, Attempted: layers.attempted, Failed: layers.failed, Metrics: layers.metrics}
				ok = ok && last.Correct
				for _, f := range layers.failures {
					fmt.Fprintf(os.Stderr, "benchmark: %s traced: %s\n", sp.name, f)
				}
				continue
			}
			m, info, err := runE2E(ctx, sp, opt)
			if err != nil {
				fatal(err)
			}
			r.E2E[sp.name], r.Runs[sp.name] = m, info
			last = contractLine{Correct: info.Correct, Attempted: info.Attempted, Failed: info.Failed, Metrics: m}
			ok = ok && info.Correct
		}
		path := *out
		if *repeat > 1 {
			path = fmt.Sprintf("%s.%d", *out, rep+1)
		}
		if err := r.write(path); err != nil {
			fatal(err)
		}
		r.printTable(os.Stdout)
		runs = append(runs, r)
	}
	if *trace == 1 {
		if err := writeSpans(filepath.Join(opt.outDir, "trace.json"), spans); err != nil {
			fatal(err)
		}
	}
	if *check && !checkRepeats(os.Stdout, runs) {
		ok = false
	}
	if len(selected) == 1 && *repeat == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}
