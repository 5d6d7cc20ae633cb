package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// The host-speed control.
//
// The reference sandbox is a 2-vCPU virtual machine on a shared host, and
// its speed is not its own: for tens of seconds to minutes at a time the
// same build runs a tenth to a third slower, because a neighbour is busy.
// The episodes are longer than a run, so no statistic taken inside a run
// removes them — ten runs of the same build spread by a quarter of their
// median on the read workloads, which is the whole regression bound, and
// by a tenth to a fifth on the others.  What removes them is a control: a
// fixed piece of work that is not the program under test, measured in the
// same seconds on the same two vCPUs, whose slow-down is the host's.
//
// The closed loop time-slices between the two: in every controlCycle the
// first controlSlice belongs to the control, the rest to the workload, on
// both client goroutines at once.  The slices are short against a noisy
// episode (seconds) and long against a control op (a tenth of a
// millisecond), so control and workload see the same host.
//
// A run's speed factor is the control's nominal op time ÷ its median op
// time in the run: 1 on a quiet reference host, below 1 when the host is
// slow.  Throughput is divided by it and every time-based metric
// multiplied by it, so the reported numbers are in quiet-reference-host
// time; the clock's readings and the factor stay beside them in
// runs[workload].  The median ignores the control ops that were preempted
// or that shared a vCPU with a request in flight.
const (
	controlCycle = 100 * time.Millisecond
	controlSlice = 20 * time.Millisecond
)

// controlKind is the work a workload's control does: the kind of work the
// host's load slows the workload's own ops by.  Measured on the reference
// sandbox, the host moves two things and leaves the rest alone (a pure
// arithmetic loop repeats to a thousandth through every episode):
type controlKind int

const (
	// controlRoundTrip is a loopback HTTP round trip to a server that does
	// nothing: a child process (this binary, started with -control-server)
	// that decodes a /count-shaped JSON request and encodes a canned reply.
	// It costs what every epserved request costs before its handler runs —
	// two wake-ups of a halted vCPU, the socket calls, the HTTP and JSON
	// code — which is all a memo-bound read is made of, and what a busy
	// host slows most (a quarter and more).
	controlRoundTrip controlKind = iota
	// controlCompute grows a hash map and a set of tables, scans them and
	// drops them, in the benchmark's own process: what a query executor
	// does per request.  A busy host slows allocation and cache misses (a
	// tenth to a fifth) and with them the workloads whose ops compile or
	// execute.
	controlCompute
)

// controlNominalMS is each control's median op time on the reference host
// in a quiet minute (the kernel's differs by a tenth either way with the
// workload it runs beside).  It only fixes the scale: metrics of two runs
// of a workload compare the same whatever it is.
var controlNominalMS = [...]float64{controlRoundTrip: 0.105, controlCompute: 0.085}

// controlBody is what a round trip posts: the shape of a /count request.
var controlBody = []byte(`{"query":"tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)","structure":"s3"}`)

// controlHandler answers every request with a canned /count-shaped reply,
// after decoding the request as a real handler would.
func controlHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Query     string `json:"query"`
			Structure string `json:"structure"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"count": "123456", "structure": req.Structure, "version": 1234, "engine": "fpt", "elapsed_us": 12,
		})
	})
}

// serveControl is the child's whole life (-control-server): listen on a
// port of the OS's choosing, announce it the way epserved does, serve
// until killed.
func serveControl() error {
	n, err := startLocal(anyPort, controlHandler(), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "listening on %s\n", n.url[len("http://"):])
	select {}
}

// computeKernel is one controlCompute op: 1500 updates of a map that grows
// from empty to a thousand keys, 4096 appends spread over 16 tables, one
// scan.  Everything it allocates is garbage when it returns.
func computeKernel(x uint64) uint64 {
	m := make(map[uint64]uint64)
	for k := 0; k < 1500; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>54] += x
	}
	var tables [16][]int32
	for k := 0; k < 4096; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		tables[x>>60] = append(tables[x>>60], int32(x>>32))
	}
	for _, t := range tables {
		for _, v := range t {
			x += uint64(v)
		}
	}
	return x + uint64(len(m))
}

// control is a workload's running control.
type control struct {
	kind controlKind
	// node and hc are the round-trip server and the client side of it.
	node *node
	hc   *http.Client
	// sink keeps the kernel's result alive.
	sink atomic.Uint64
}

// startControl starts a control of the given kind.  The round-trip server
// is a child process when the fleet is one (so a round trip crosses
// processes as a real request does) and in-process under -quick.
func startControl(ln launcher, kind controlKind, conns int) (*control, error) {
	c := &control{kind: kind}
	if kind == controlCompute {
		return c, nil
	}
	var err error
	if ln.bin != "" {
		var exe string
		if exe, err = os.Executable(); err != nil {
			return nil, err
		}
		c.node, err = startProc(exe, "-control-server")
	} else {
		c.node, err = startLocal(anyPort, controlHandler(), nil)
	}
	if err != nil {
		return nil, fmt.Errorf("control server: %w", err)
	}
	c.hc = newHTTPClient(conns)
	return c, nil
}

// op does one control op; the closed loop times it.
func (c *control) op() error {
	if c.kind == controlCompute {
		c.sink.Add(computeKernel(c.sink.Load()))
		return nil
	}
	resp, err := c.hc.Post(c.node.url+"/count", "application/json", bytes.NewReader(controlBody))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("control server answered %s", resp.Status)
	}
	return err
}

func (c *control) stop() {
	if c.node != nil {
		c.hc.CloseIdleConnections()
		c.node.stop()
	}
}

// hostSpeed is a run's speed factor from its control op times (ms): 1 on
// a quiet reference host, below 1 on a slow one, and 1 when the run had
// no control.
func hostSpeed(kind controlKind, ctlMS []float64) float64 {
	if len(ctlMS) == 0 {
		return 1
	}
	return controlNominalMS[kind] / median(ctlMS)
}
