// Command epbench runs the reproduction experiment suite (E1–E10 and the
// ablations A2–A5; see the package comment of internal/experiments) and
// prints one table per experiment; service performance — throughput,
// latency, delta maintenance, durability, the sampler — is measured by
// go run ./benchmark instead.  Since the paper is a theory paper with no
// measurement section, these tables are the "figures" of the
// reproduction: each operationalizes one worked example or theorem and
// self-validates.
//
// Usage:
//
//	epbench                  # full suite
//	epbench -quick           # smaller instances
//	epbench -run E3          # one experiment
//	epbench -list            # list experiments
//	epbench -json out/       # also write machine-readable BENCH_<id>.json files
//	epbench -cpuprofile p.pb # write a pprof CPU profile of the run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "run reduced instance sizes")
		runID      = flag.String("run", "", "run a single experiment by id (e.g. E3)")
		list       = flag.Bool("list", false, "list experiments and exit")
		jsonDir    = flag.String("json", "", "also write each table as BENCH_<id>.json into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	if *list {
		for _, s := range experiments.All() {
			fmt.Printf("%-3s  %s\n", s.ID, s.Title)
		}
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "epbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "epbench:", err)
			os.Exit(1)
		}
	}
	// Profiles must flush on every exit path, so the suite reports its
	// exit code instead of calling os.Exit mid-run.
	code := runSuite(*quick, *runID, *jsonDir)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		writeHeapProfile(*memProfile)
	}
	os.Exit(code)
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epbench:", err)
		return
	}
	defer f.Close()
	runtime.GC() // settle live heap before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "epbench:", err)
	}
}

func runSuite(quick bool, runID, jsonDir string) int {
	cfg := experiments.Config{Quick: quick}
	specs := experiments.All()
	if runID != "" {
		s, err := experiments.Get(runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "epbench:", err)
			return 1
		}
		specs = []experiments.Spec{s}
	}
	failed := 0
	for _, s := range specs {
		start := time.Now()
		tbl, err := s.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epbench: %s failed: %v\n", s.ID, err)
			failed++
			continue
		}
		elapsed := time.Since(start)
		fmt.Print(tbl.Render())
		fmt.Printf("elapsed: %v\n\n", elapsed.Round(time.Millisecond))
		if jsonDir != "" {
			if err := os.MkdirAll(jsonDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "epbench:", err)
				return 1
			}
			data, err := tbl.JSON(elapsed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "epbench:", err)
				return 1
			}
			path := filepath.Join(jsonDir, "BENCH_"+s.ID+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "epbench:", err)
				return 1
			}
		}
		if !tbl.OK {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "epbench: %d experiment(s) failed validation\n", failed)
		return 1
	}
	return 0
}
