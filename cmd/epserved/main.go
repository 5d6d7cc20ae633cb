// Command epserved serves ep-query counting over HTTP/JSON: a named-
// structure registry with streaming fact appends, compiled-query
// caching with cross-client plan sharing, batched counting, admission
// control, per-request deadlines, and a /stats telemetry endpoint.  See
// internal/serve for the API and the README's "Serving" section for a
// curl walkthrough.
//
// Usage:
//
//	epserved -addr :8080
//	epserved -addr :8080 -workers 8 -max-inflight 128 -timeout 10s
//	epserved -load social=social.facts -load web=web.facts
//	epserved -data-dir /var/lib/epserved -fsync always
//	epserved -router http://shard0:8080,http://shard1:8080 -replicas 2
//
// The twelve endpoints — structures, appends, /count and /countBatch
// (exact or mode "approx"), subscriptions, /stats, /healthz — are
// listed with their request shapes by `epserved -h`, from the route
// table they are served from (serve.Routes).
//
// With -data-dir, every structure creation and append batch is
// write-ahead logged (fsynced per -fsync) and periodically compacted
// into columnar snapshots; on start the directory is recovered —
// snapshots load, the WAL tail replays, torn or corrupt suffixes are
// truncated — before the listener accepts.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight requests drain (up to -drain), and the durability store
// flushes and closes after the last append writer finishes.
//
// With -router the process is a cluster coordinator instead of a shard:
// it serves the same API but owns no structures itself, routing every
// request over the comma-separated shard list by consistent hashing
// with -replicas-way replication and scatter-gather batch counting
// (see internal/cluster).  It accepts the same structure names and
// request bodies as a shard.  -load, -data-dir and the shard-local
// tuning flags do not apply in router mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// loadSpec is one -load argument: a structure to preload at startup.
type loadSpec struct {
	name, path string
}

// parseLoadSpec splits "name=path".
func parseLoadSpec(s string) (loadSpec, error) {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return loadSpec{}, fmt.Errorf("-load wants name=factfile, got %q", s)
	}
	return loadSpec{name: name, path: path}, nil
}

// gcPercent is the collector's pacing when the operator has not set
// GOGC.  Session tables and a count's scratch are plain heap slices that
// turn to garbage once used, and a memo-warm server's live heap is only a
// couple of MiB (a binary relation's tables are the store's own rows), so
// at Go's default of 100 the collector runs often.  On the repository
// benchmark (2-vCPU Xeon, go1.24.0, three alternating runs a side) 100
// rather than 200 costs cold-query 1.23× the CPU per op and 1.29× the
// p99, and warm-read 1.04× the CPU per op and 1.03× the p99, for 0.74×
// and 0.81× of their peak RSS.
const gcPercent = 200

func main() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "width of the /countBatch fan-out: structures of one batch counted at once (0 = GOMAXPROCS)")
		inflight  = flag.Int("max-inflight", 0, "max concurrently executing counting requests (0 = 64); excess requests get 503")
		timeout   = flag.Duration("timeout", 0, "per-request counting deadline (0 = 30s); requests may lower it via timeout_ms")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight requests")
		dataDir   = flag.String("data-dir", "", "durability directory (WAL + snapshots); empty = in-memory only")
		fsync     = flag.String("fsync", "batch", "WAL sync policy with -data-dir: always | batch | never")
		router    = flag.String("router", "", "run as a cluster coordinator over this comma-separated shard URL list instead of serving structures locally")
		replicas  = flag.Int("replicas", 1, "router mode: replication factor (structures live on this many ring successors)")
		hardExact = flag.Int("hard-exact-limit", 0, "reject exact-mode counting of hard queries (Theorem 3.2 cases 2–3) on structures above this many tuples with 422; clients should retry with mode=approx (0 = no limit)")
		loadSpecs []loadSpec
	)
	flag.Func("load", "preload a structure at startup as name=factfile (repeatable)", func(s string) error {
		ls, err := parseLoadSpec(s)
		if err != nil {
			return err
		}
		loadSpecs = append(loadSpecs, ls)
		return nil
	})
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "Usage: epserved [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(out, "\nEndpoints (JSON bodies; \"?\" marks an optional field):")
		for _, rt := range serve.Routes {
			fmt.Fprintf(out, "  %-6s %-26s %s\n", rt.Method, rt.Path, rt.Doc)
		}
	}
	flag.Parse()

	var (
		svc service
		// ready, if set, runs once the listener is bound (boot recovery
		// included).
		ready func() error
		err   error
	)
	switch {
	case *router == "":
		svc, ready, err = newShard(serve.Config{
			Addr:           *addr,
			Workers:        *workers,
			MaxInFlight:    *inflight,
			RequestTimeout: *timeout,
			DataDir:        *dataDir,
			Fsync:          *fsync,
			HardExactLimit: *hardExact,
		}, loadSpecs)
	// Shard-local flags are rejected rather than silently ignored: a
	// router holds no structures and no durability store.
	case *hardExact != 0:
		err = fmt.Errorf("-hard-exact-limit does not apply in router mode (shards enforce admission); set it on the shard processes")
	case *dataDir != "":
		err = fmt.Errorf("-data-dir does not apply in router mode (shards own durability); run it on the shard processes")
	case len(loadSpecs) > 0:
		err = fmt.Errorf("-load does not apply in router mode; preload through the API so creates replicate")
	default:
		// The same HTTP frontend a shard has, over a backend that owns no
		// structures and routes every operation over the shard fleet.
		var co *cluster.Coordinator
		co, err = cluster.New(cluster.Config{
			Shards:   strings.FieldsFunc(*router, func(r rune) bool { return r == ',' || r == ' ' }),
			Replicas: *replicas,
		})
		if err == nil {
			fmt.Fprintf(os.Stderr, "epserved: routing %d shards (replicas=%d, vnodes=%d)\n",
				len(co.Ring().Nodes()), co.Replicas(), co.Ring().VNodes())
			svc = serve.NewFrontend(co, *addr, *timeout)
		}
	}
	if err == nil {
		err = run(svc, ready, *drain)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "epserved:", err)
		os.Exit(1)
	}
}

// newShard makes the process a single node.  Without a data dir the
// -load structures land before the listener opens; with one they wait
// for ready, after Start's recovery, so the creations are logged
// durably.
func newShard(cfg serve.Config, loads []loadSpec) (service, func() error, error) {
	srv := serve.New(cfg)
	if cfg.DataDir == "" {
		return srv, nil, preload(srv.Registry(), loads, false)
	}
	return srv, func() error {
		if err := preload(srv.Registry(), loads, true); err != nil {
			return err
		}
		d := srv.Registry().DurabilityStats()
		fmt.Fprintf(os.Stderr, "epserved: recovered %d structures (%d snapshots, %d WAL records) from %s; fsync=%s\n",
			d.RecoveredStructures, d.RecoveredSnapshots, d.RecoveredRecords, cfg.DataDir, d.Fsync)
		if d.TruncatedTail {
			fmt.Fprintln(os.Stderr, "epserved: WARNING: a torn or corrupt WAL tail was truncated during recovery")
		}
		return nil
	}, nil
}

// service is the lifecycle a shard (serve.Server) and a router (a
// serve.Frontend over the coordinator) share.
type service interface {
	Start() error
	Addr() string
	Shutdown(context.Context) error
}

// run serves until SIGINT/SIGTERM, then drains.
func run(svc service, ready func() error, drain time.Duration) error {
	if err := svc.Start(); err != nil {
		return err
	}
	if ready != nil {
		if err := ready(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "epserved: listening on %s\n", svc.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "epserved: shutting down (draining in-flight requests)")
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return svc.Shutdown(ctx)
}

// preload registers the -load structures.  With skipExisting (a data
// dir is attached) a name the recovered state already holds is skipped:
// the recovered state wins, reloading it every boot would conflict.
func preload(reg *serve.Registry, loads []loadSpec, skipExisting bool) error {
	for _, ls := range loads {
		facts, err := os.ReadFile(ls.path)
		if err != nil {
			return err
		}
		info, err := reg.CreateStructure(ls.name, string(facts), nil)
		if err != nil {
			if skipExisting && serve.IsDuplicate(err) {
				fmt.Fprintf(os.Stderr, "epserved: %s already in data dir; skipping -load\n", ls.name)
				continue
			}
			return fmt.Errorf("preload %s: %w", ls.name, err)
		}
		fmt.Fprintf(os.Stderr, "epserved: loaded %s (%d elements, %d tuples)\n", info.Name, info.Size, info.Tuples)
	}
	return nil
}
