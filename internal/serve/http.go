package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"time"
)

// Route is one row of the epserved wire API.
type Route struct {
	// Method and Path form the route's mux pattern.
	Method, Path string
	// Doc is the request shape and what the route does, one line (the
	// endpoint listing of `epserved -h`).
	Doc    string
	handle func(*Frontend, http.ResponseWriter, *http.Request)
}

// Routes is the whole wire API: every epserved process — shard or
// router — serves exactly these, through the one Frontend.  Bodies and
// responses are the JSON types of api.go; "?" marks an optional field.
var Routes = []Route{
	{"POST", "/structures", `{"name", "facts", "signature"?: [{"name", "arity"}]}  ingest a structure`, (*Frontend).createStructure},
	{"GET", "/structures", `list the registered structures`, (*Frontend).listStructures},
	{"GET", "/structures/{name}", `one structure's metadata`, (*Frontend).getStructure},
	{"POST", "/structures/{name}/facts", `{"facts", "batch_id"?}  append atomically, idempotent per batch_id`, (*Frontend).appendFacts},
	{"POST", "/count", `{"query", "structure", "timeout_ms"?, "mode"?: "exact" | "approx", "epsilon"?, "delta"?, "max_samples"?, "seed"?}`, (*Frontend).count},
	{"POST", "/countBatch", `{"query", "structures": [...], and the options of /count}  one query on many structures`, (*Frontend).countBatch},
	{"POST", "/subscriptions", `{"query", "structure"}  register a maintained count`, (*Frontend).subscribe},
	{"GET", "/subscriptions", `list the subscriptions`, (*Frontend).listSubscriptions},
	{"GET", "/subscriptions/{id}", `the maintained count at the structure's current version`, (*Frontend).subscriptionCount},
	{"DELETE", "/subscriptions/{id}", `remove a subscription`, (*Frontend).unsubscribe},
	{"GET", "/stats", `admission, per-query, session, cache, delta and durability telemetry (merged across shards on a router)`, (*Frontend).stats},
	{"GET", "/healthz", `200 "ready", or 503 with the state ("recovering", "degraded (2/3 shards ready)")`, (*Frontend).healthz},
}

// Frontend is the HTTP surface of a Backend: the route table, request
// decoding and validation, the per-request deadline, the encoding of
// results and errors, and the listener lifecycle.  It is the only place
// the wire format meets a handler, whatever executes behind it.
type Frontend struct {
	b       Backend
	addr    string
	timeout time.Duration
	mux     *http.ServeMux

	httpSrv  *http.Server
	listener net.Listener
}

// NewFrontend serves b.  addr is the listen address for Start (empty =
// an OS-chosen port); timeout is the deadline of a counting request
// (≤ 0 = 30s), which a request's timeout_ms can lower, never raise.
func NewFrontend(b Backend, addr string, timeout time.Duration) *Frontend {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	f := &Frontend{b: b, addr: addr, timeout: timeout, mux: http.NewServeMux()}
	for _, rt := range Routes {
		f.mux.HandleFunc(rt.Method+" "+rt.Path, func(w http.ResponseWriter, r *http.Request) { rt.handle(f, w, r) })
	}
	return f
}

// Handler returns the HTTP handler (mountable under httptest or an
// external http.Server).
func (f *Frontend) Handler() http.Handler { return f.mux }

// Start listens on the configured address and serves in a background
// goroutine until Shutdown.  It returns once the listener is bound, so
// Addr is valid immediately after.
func (f *Frontend) Start() error {
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	f.listener = ln
	f.httpSrv = &http.Server{Handler: f.mux}
	go func() { _ = f.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address after Start.
func (f *Frontend) Addr() string {
	if f.listener == nil {
		return ""
	}
	return f.listener.Addr().String()
}

// Shutdown stops a Started frontend: the listener closes immediately
// (new connections are refused) and in-flight requests run to
// completion or ctx expires.  The backend is not touched.
func (f *Frontend) Shutdown(ctx context.Context) error {
	if f.httpSrv == nil {
		return nil
	}
	return f.httpSrv.Shutdown(ctx)
}

// ---- request plumbing ----

// maxRequestBytes bounds request bodies (fact batches included).
const maxRequestBytes = 64 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError encodes a backend failure.  An APIError brings its status,
// message and trichotomy case (every 503 goes out with Retry-After);
// anything else means the backend could not answer, which is 504 when
// the request's deadline is what stopped it and 502 otherwise.
func writeError(w http.ResponseWriter, err error) {
	var ae *APIError
	if !errors.As(err, &ae) {
		ae = &APIError{Status: http.StatusBadGateway, Msg: err.Error()}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			ae.Status = http.StatusGatewayTimeout
		}
	}
	if ae.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	msg := ae.Msg
	if msg == "" {
		msg = ae.Error()
	}
	writeJSON(w, ae.Status, ErrorResponse{Error: msg, Case: ae.Case})
}

// reply encodes one operation's outcome: v under the success status, or
// the error.
func reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, status, v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, Errorf(http.StatusBadRequest, "invalid request body: %v", err))
		return false
	}
	return true
}

// requestCtx derives a counting request's context: the client's
// connection context bounded by the frontend's deadline, optionally
// lowered by the request's timeout_ms.
func (f *Frontend) requestCtx(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	d := f.timeout
	if timeoutMillis > 0 {
		if td := time.Duration(timeoutMillis) * time.Millisecond; td < d {
			d = td
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// ---- handlers ----

func (f *Frontend) createStructure(w http.ResponseWriter, r *http.Request) {
	var req CreateStructureRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	info, err := f.b.CreateStructureWith(r.Context(), req)
	reply(w, http.StatusCreated, info, err)
}

func (f *Frontend) listStructures(w http.ResponseWriter, r *http.Request) {
	infos, err := f.b.Structures(r.Context())
	reply(w, http.StatusOK, StructuresResponse{Structures: infos}, err)
}

func (f *Frontend) getStructure(w http.ResponseWriter, r *http.Request) {
	info, err := f.b.Structure(r.Context(), r.PathValue("name"))
	reply(w, http.StatusOK, info, err)
}

func (f *Frontend) appendFacts(w http.ResponseWriter, r *http.Request) {
	var req AppendFactsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	info, err := f.b.AppendFactsBatch(r.Context(), r.PathValue("name"), req.Facts, req.BatchID)
	reply(w, http.StatusOK, info, err)
}

func (f *Frontend) count(w http.ResponseWriter, r *http.Request) {
	var req CountRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if _, err := countOptions(req.Mode, req.approxParams()); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := f.requestCtx(r, req.TimeoutMillis)
	defer cancel()
	_, resp, err := f.b.CountWith(ctx, req)
	reply(w, http.StatusOK, resp, err)
}

func (f *Frontend) countBatch(w http.ResponseWriter, r *http.Request) {
	var req CountBatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Structures) == 0 {
		writeError(w, errNoStructures)
		return
	}
	if _, err := countOptions(req.Mode, req.approxParams()); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := f.requestCtx(r, req.TimeoutMillis)
	defer cancel()
	_, resp, err := f.b.CountBatchWith(ctx, req)
	reply(w, http.StatusOK, resp, err)
}

func (f *Frontend) subscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	info, err := f.b.SubscribeWith(r.Context(), req)
	reply(w, http.StatusCreated, info, err)
}

func (f *Frontend) listSubscriptions(w http.ResponseWriter, r *http.Request) {
	subs, err := f.b.Subscriptions(r.Context())
	reply(w, http.StatusOK, SubscriptionsResponse{Subscriptions: subs}, err)
}

// subscriptionCount is a counting request (the lazy maintenance may run
// a delta advance or a full count), so it carries the deadline.
func (f *Frontend) subscriptionCount(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := f.requestCtx(r, 0)
	defer cancel()
	_, info, err := f.b.SubscriptionCount(ctx, r.PathValue("id"))
	reply(w, http.StatusOK, info, err)
}

func (f *Frontend) unsubscribe(w http.ResponseWriter, r *http.Request) {
	err := f.b.Unsubscribe(r.Context(), r.PathValue("id"))
	reply(w, http.StatusOK, map[string]bool{"ok": true}, err)
}

func (f *Frontend) stats(w http.ResponseWriter, r *http.Request) {
	st, err := f.b.Stats(r.Context())
	reply(w, http.StatusOK, st, err)
}

// healthz answers 200 "ready", or 503 naming the backend's state, so
// load balancers keep traffic off a node still replaying its store or a
// partially-up cluster while operators see which.
func (f *Frontend) healthz(w http.ResponseWriter, r *http.Request) {
	if err := f.b.Healthz(r.Context()); err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, HealthzResponse{OK: false, State: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, HealthzResponse{OK: true, State: "ready"})
}
