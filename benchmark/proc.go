package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/wal"
)

// topology is the server fleet a workload runs against.
type topology int

const (
	topoSingle  topology = iota // one in-memory epserved
	topoDurable                 // one epserved -data-dir <tmp> -fsync batch
	topoRouted                  // epserved -router over 3 shards, -replicas 2
)

const (
	routedShards   = 3
	routedReplicas = 2
)

// The routed fleet's shards listen on fixed ports.  The coordinator's
// hash ring places structures by hashing the shard URLs, so OS-chosen
// ports would deal the eight structures differently over the shards on
// every run — a scatter-gather then fans out to one, two or three
// shards, a different workload each time.  Shard i listens on routedBasePort+i; if one of the ports
// is taken, the whole set moves up by routedPortStride, at most
// routedPortTries times.
const (
	routedBasePort   = 23117
	routedPortStride = 100
	routedPortTries  = 8
)

// anyPort lets the OS choose: every node but the routed shards.
const anyPort = "127.0.0.1:0"

// launcher starts server nodes either as child epserved processes (the
// measured configuration) or inside the benchmark process (the traced
// run and -quick, where handlers must be wrappable and nothing may be
// built).
type launcher struct {
	// bin is the epserved binary; empty selects in-process nodes.
	bin string
	// control gives the fleet the workload's host-speed control (the
	// measured run; see control.go).
	control bool
	// wrap, when set, wraps every in-process node's HTTP handler (the
	// traced run's timing handler); role is "shard" or "router".
	wrap func(role string, h http.Handler) http.Handler
}

// node is one running server: a child process or an in-process
// http.Server.  Exactly one of cmd and stopLocal is set.
type node struct {
	url string

	cmd  *exec.Cmd
	done chan struct{} // closed once the stderr reader has drained
	tail *tailBuffer

	stopLocal func()
}

// tailBuffer keeps the last few stderr lines of a child for error
// reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 8 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// buildServer compiles ./cmd/epserved into dir and returns the binary's
// path.  It runs from the checkout root (the benchmark's working
// directory), so the binary is always the checkout's own source.
func buildServer(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "epserved"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/epserved").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/epserved: %v: %s", err, out)
	}
	return bin, nil
}

// listenTimeout bounds how long a child may take to print its
// "listening on" line (boot recovery of a durable node included).
const listenTimeout = 30 * time.Second

// startProc spawns a server (epserved, or this binary as the control
// server) and waits for its "listening on <addr>" stderr line.
func startProc(bin string, full ...string) (*node, error) {
	cmd := exec.Command(bin, full...)
	// The child must not outlive the benchmark even if the benchmark is
	// killed: the kernel delivers SIGKILL when the parent dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{cmd: cmd, done: make(chan struct{}), tail: &tailBuffer{}}
	addrCh := make(chan string, 1)
	go func() {
		defer close(n.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			n.tail.add(line)
			if i := strings.LastIndex(line, "listening on "); i >= 0 && !sent {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			_ = cmd.Wait()
			return nil, fmt.Errorf("%s %v exited before listening: %s", filepath.Base(bin), full, n.tail)
		}
		n.url = "http://" + addr
		return n, nil
	case <-time.After(listenTimeout):
		n.kill()
		return nil, fmt.Errorf("%s %v did not listen within %v: %s", filepath.Base(bin), full, listenTimeout, n.tail)
	}
}

// kill SIGKILLs a child and waits for it; a no-op for in-process nodes
// and for children already reaped.
func (n *node) kill() {
	if n.cmd == nil || n.cmd.ProcessState != nil {
		return
	}
	_ = n.cmd.Process.Kill()
	<-n.done
	_ = n.cmd.Wait()
}

// stop ends the node: SIGTERM with a bounded wait for children (then
// SIGKILL), Shutdown for in-process nodes.  It returns only once the
// node has ended.
func (n *node) stop() {
	if n.stopLocal != nil {
		n.stopLocal()
		n.stopLocal = nil
		return
	}
	if n.cmd == nil || n.cmd.ProcessState != nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan struct{})
	go func() {
		<-n.done
		_ = n.cmd.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		_ = n.cmd.Process.Kill()
		<-waited
	}
}

// pid is the process whose CPU and memory the node is charged to: the
// child, or the benchmark itself for in-process nodes.
func (n *node) pid() int {
	if n.cmd != nil {
		return n.cmd.Process.Pid
	}
	return os.Getpid()
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time
// in these units, and every Linux ABI the Go toolchain targets fixes it
// at 100.
const clockTick = 100

// procCPU returns user+system CPU time consumed so far by pid, read
// from /proc/<pid>/stat (fields 14 and 15).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS returns pid's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// startLocal serves h on addr inside this process.
func startLocal(addr string, h http.Handler, onStop func()) (*node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	n := &node{url: "http://" + ln.Addr().String()}
	n.stopLocal = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
		if onStop != nil {
			onStop()
		}
	}
	return n, nil
}

// fleet is the set of server nodes one workload runs against.
type fleet struct {
	ln    launcher
	topo  topology
	entry *node   // the node clients talk to (the router when routed)
	nodes []*node // every node, entry included
	// dataDir is the durable node's data directory (topoDurable only).
	dataDir string
}

// startShard starts one shard node on addr; dataDir != "" makes it
// durable with the product-default batch fsync policy.
func (ln launcher) startShard(addr, dataDir string) (*node, error) {
	if ln.bin != "" {
		if dataDir != "" {
			return startProc(ln.bin, "-addr", addr, "-data-dir", dataDir, "-fsync", "batch")
		}
		return startProc(ln.bin, "-addr", addr)
	}
	srv := serve.New(serve.Config{})
	var store *wal.Store
	if dataDir != "" {
		// serve.Server.Start would run this recovery itself, but it also
		// binds its own listener around the unwrapped handler; the
		// in-process node needs the handler, so it recovers by hand
		// through the same public calls.
		st, rep, err := wal.Open(wal.Options{Dir: dataDir, Sync: wal.SyncBatch})
		if err != nil {
			return nil, err
		}
		if err := srv.Registry().AttachStore(st, rep, 0); err != nil {
			_ = st.Close()
			return nil, err
		}
		store = st
	}
	h := srv.Handler()
	if ln.wrap != nil {
		h = ln.wrap("shard", h)
	}
	n, err := startLocal(addr, h, func() { _ = srv.Registry().Close() })
	if err != nil && store != nil {
		_ = store.Close()
	}
	return n, err
}

// startRouter starts the coordinator over the given shard URLs.
func (ln launcher) startRouter(shards []string) (*node, error) {
	if ln.bin != "" {
		return startProc(ln.bin, "-addr", anyPort, "-router", strings.Join(shards, ","), "-replicas", strconv.Itoa(routedReplicas))
	}
	co, err := cluster.New(cluster.Config{Shards: shards, Replicas: routedReplicas})
	if err != nil {
		return nil, err
	}
	h := co.Handler()
	if ln.wrap != nil {
		h = ln.wrap("router", h)
	}
	return startLocal(anyPort, h, nil)
}

// boot starts a fresh fleet of the given topology.  scratch is the
// directory durable nodes keep their data under.
func (ln launcher) boot(topo topology, scratch string) (*fleet, error) {
	f := &fleet{ln: ln, topo: topo}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	switch topo {
	case topoSingle, topoDurable:
		if topo == topoDurable {
			dir, err := os.MkdirTemp(scratch, "data-")
			if err != nil {
				return fail(err)
			}
			f.dataDir = dir
		}
		n, err := ln.startShard(anyPort, f.dataDir)
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, n)
		f.entry = n
	case topoRouted:
		var (
			urls []string
			err  error
		)
		for try := 0; try < routedPortTries; try++ {
			base := routedBasePort + try*routedPortStride
			if urls, err = f.startRoutedShards(base); err == nil {
				if try > 0 {
					fmt.Fprintf(os.Stderr, "benchmark: ports from %d are taken; routed shards listen from %d, so the ring places structures differently than pinned\n", routedBasePort, base)
				}
				break
			}
		}
		if err != nil {
			return fail(err)
		}
		r, err := ln.startRouter(urls)
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, r)
		f.entry = r
	}
	return f, nil
}

// startRoutedShards starts the routed fleet's shards on base, base+1, …
// and returns their URLs; on failure (a port is taken) it stops the ones
// it started.
func (f *fleet) startRoutedShards(base int) ([]string, error) {
	var urls []string
	for i := 0; i < routedShards; i++ {
		n, err := f.ln.startShard("127.0.0.1:"+strconv.Itoa(base+i), "")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.url)
	}
	return urls, nil
}

// stop ends every node, waits for each, and removes the data directory.
func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.stop()
	}
	f.nodes = nil
	if f.dataDir != "" {
		_ = os.RemoveAll(f.dataDir)
		f.dataDir = ""
	}
}

// crashRestart kills the durable node without warning (SIGKILL for a
// child; in-process nodes can only be shut down) and starts a new one
// on the same data directory, which must recover every acknowledged
// batch.  A process kill leaves the kernel's page cache intact, so
// this checks that acknowledged records were written, not that they
// were flushed to a device.
func (f *fleet) crashRestart() error {
	if f.topo != topoDurable {
		return fmt.Errorf("crashRestart on a non-durable fleet")
	}
	old := f.entry
	if old.cmd != nil {
		old.kill()
	} else {
		old.stop()
	}
	n, err := f.ln.startShard(anyPort, f.dataDir)
	if err != nil {
		f.nodes, f.entry = nil, nil
		return err
	}
	f.nodes = []*node{n}
	f.entry = n
	return nil
}

// pids lists the fleet's server processes.  In-process nodes all are
// the benchmark's own process, listed once.
func (f *fleet) pids() []int {
	var out []int
	seen := map[int]bool{}
	for _, n := range f.nodes {
		if pid := n.pid(); !seen[pid] {
			seen[pid] = true
			out = append(out, pid)
		}
	}
	return out
}

// cpu sums the CPU time of the fleet's server processes.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, pid := range f.pids() {
		d, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// peakRSS sums the peak resident sets (VmHWM) of the fleet's server
// processes, in MB: the memory the deployment needs.  For the routed
// fleet the sum repeats to within a percent from run to run, while the
// largest single process — which of the four it is changes — moves by a
// fifth.
func (f *fleet) peakRSS() (float64, error) {
	total := 0.0
	for _, pid := range f.pids() {
		v, err := procPeakRSS(pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// newHTTPClient returns an http.Client limited to conns keep-alive
// connections per host: the closed loop's "one connection per client
// goroutine".
func newHTTPClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr}
}
