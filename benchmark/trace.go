package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark: spans are recorded around
// calls into each layer's public functions (and around the HTTP handlers
// of in-process servers), kept in memory, and written out when the run
// ends.  Spans inside the program are a later change.

// span is one timed interval at a layer boundary.  The spans of one
// request share Op; Parent is the span that caused this one (0 = none).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Workload string `json:"workload"`
	// Rung is the ladder rung that recorded the span: 0 = over HTTP,
	// 1 = direct core/registry calls, 2 = stage calls.
	Rung  int    `json:"rung"`
	Name  string `json:"name"`
	Class string `json:"class,omitempty"`
	// StartNS and EndNS count from the recorder's start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// us is the span's duration in microseconds.
func (s span) us() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// recorder collects spans.  It is safe for concurrent use: a routed
// batch runs several shard handlers at once.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// start opens a span and returns its id.
func (r *recorder) start(rung int, name, class string, parent, op int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Workload: r.workload, Rung: rung, Name: name, Class: class, StartNS: now, EndNS: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// timed records fn as one span.
func (r *recorder) timed(rung int, name, class string, parent, op int, fn func()) {
	id := r.start(rung, name, class, parent, op)
	fn()
	r.end(id)
}

// timedAs records fn as one span named by fn's result: for calls whose
// layer name is only known afterwards (a count turns out memo-cold or
// memo-warm).
func (r *recorder) timedAs(rung int, class string, parent, op int, fn func() string) {
	id := r.start(rung, "", class, parent, op)
	name := fn()
	r.end(id)
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its direct children cover.  Children may overlap
// each other (a scatter-gather runs shard calls in parallel) and are
// clipped to the parent, so the covered part is the length of the union
// of the clipped child intervals.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// writeSpans stores the spans as JSON at path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tracer is the timing handler around in-process nodes.  One client
// drives the traced run, so at most one request is in flight and "the
// current op" is a single value; only a router's scatter-gather runs
// handlers concurrently, and those share the router span as parent.
type tracer struct {
	rec *recorder
	// on says whether the current op records spans.  Ops alternate
	// between traced and untraced on the same servers, which is how the
	// tracing overhead is measured.
	on       atomic.Bool
	op       atomic.Int64
	clientID atomic.Int64 // the client-call span of the current op
	routerID atomic.Int64 // the router handler span in flight, 0 if none
}

// routeName maps a request to the handler it reaches.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/count":
		return "count"
	case p == "/countBatch":
		return "batch"
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/structures/") && strings.HasSuffix(p, "/facts"):
		return "append"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/subscriptions/"):
		return "subread"
	}
	return "other"
}

// wrap is the launcher hook: it times every request an in-process node
// handles while tracing is on.
func (t *tracer) wrap(role string, h http.Handler) http.Handler {
	layer := "serve.handler"
	if role == "router" {
		layer = "cluster.handler"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent := int(t.clientID.Load())
		if role == "shard" {
			if rid := int(t.routerID.Load()); rid != 0 {
				parent = rid
			}
		}
		id := t.rec.start(0, layer, routeName(r), parent, int(t.op.Load()))
		if role == "router" {
			t.routerID.Store(int64(id))
		}
		h.ServeHTTP(w, r)
		t.rec.end(id)
		if role == "router" {
			t.routerID.Store(0)
		}
	})
}
