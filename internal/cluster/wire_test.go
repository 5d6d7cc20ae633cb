package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// answer is what a client can tell one surface from another by.
type answer struct {
	status     int
	caseStr    string
	errMsg     string
	retryAfter string
}

// probe sends one raw request (no typed client in between, so unknown
// JSON fields and malformed ids reach the surface as written).
func probe(t *testing.T, base, method, path, body string) answer {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	if resp.StatusCode >= 300 {
		var er serve.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s %s: HTTP %d with a non-JSON error body: %v", method, path, resp.StatusCode, err)
		}
		a.caseStr, a.errMsg = er.Case, er.Error
	}
	return a
}

// wireSurfaces starts a 2-shard × 2-replica router and a single node
// (all with the same exact-admission limit, so a typed 422 exists on
// both) holding the same state: "g" and "big" (over E) and "h" (over
// F only).
func wireSurfaces(t *testing.T) (router, single string) {
	t.Helper()
	cfg := serve.Config{HardExactLimit: 5}
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(cfg).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	co, err := New(Config{Shards: urls, Replicas: 2, VNodes: 32, Retry: serve.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(co.Handler())
	t.Cleanup(rts.Close)
	sts := httptest.NewServer(serve.New(cfg).Handler())
	t.Cleanup(sts.Close)
	create := func(base string, req serve.CreateStructureRequest) {
		t.Helper()
		body, _ := json.Marshal(req)
		if a := probe(t, base, "POST", "/structures", string(body)); a.status != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d %s", req.Name, a.status, a.errMsg)
		}
	}
	for _, base := range []string{rts.URL, sts.URL} {
		create(base, serve.CreateStructureRequest{Name: "g", Facts: erFacts(t, 12, 0.5, 3)})
		create(base, serve.CreateStructureRequest{Name: "h", Facts: "F(a,b). F(b,c)."})
		create(base, serve.CreateStructureRequest{Name: "big", Facts: erFacts(t, 15, 0.7, 33)})
	}
	return rts.URL, sts.URL
}

// TestWireEquivalenceOnErrors sends one probe matrix to the router and
// to a single node and requires the same status and the same trichotomy
// case from both, with Retry-After on every 503: whatever a client does
// wrong, it cannot tell from the answer which of the two it talks to.
func TestWireEquivalenceOnErrors(t *testing.T) {
	router, single := wireSurfaces(t)

	const edge = `q(x,y) := E(x,y)`
	type row struct {
		name, method, path, body string
		singlePath               string // the single node's path, where it differs (subscription ids are per surface)
		mentions                 string // what both error messages must name
	}
	var rows []row

	// The counting probes, on two structures, through /count and
	// /countBatch.
	counting := []struct{ name, query, more, mentions string }{
		{"unknown mode", edge, `,"mode":"bogus"`, ""},
		{"unknown engine", edge, `,"engine":"warp"`, ""},
		// The oracle and ablation engines are epcount's, not the wire's.
		{"engine brute", edge, `,"engine":"brute"`, "engine"},
		{"engine projection", edge, `,"engine":"projection"`, "engine"},
		{"engine fpt-nocore", edge, `,"engine":"fpt-nocore"`, "engine"},
		{"unknown JSON field", edge, `,"bogus":1`, ""},
		{"malformed query", "this is not a query", "", ""},
		{"unknown relation", "q(x) := R(x,x)", "", ""},
		{"hard query in exact mode (typed 422)", triQuery, "", ""},
		// Out-of-range approx parameters are refused, not replaced by
		// the defaults (0 is what asks for a default).
		{"approx: negative epsilon", edge, `,"mode":"approx","epsilon":-1`, "epsilon"},
		{"approx: delta beyond 1", edge, `,"mode":"approx","delta":2`, "delta"},
		{"approx: negative max_samples", edge, `,"mode":"approx","max_samples":-7`, "max_samples"},
	}
	for _, target := range []string{"g", "big"} {
		for _, c := range counting {
			rows = append(rows,
				row{name: c.name + " /count " + target, method: "POST", path: "/count", mentions: c.mentions,
					body: fmt.Sprintf(`{"query":%q,"structure":%q%s}`, c.query, target, c.more)},
				row{name: c.name + " /countBatch " + target, method: "POST", path: "/countBatch", mentions: c.mentions,
					body: fmt.Sprintf(`{"query":%q,"structures":["g",%q]%s}`, c.query, target, c.more)})
		}
		// "h" has no relation E.  (The router cannot see a plain
		// structure's signature, so a batch whose signatures differ while
		// every one of them admits the query is counted there and refused
		// by a single node; that is not probed.)
		rows = append(rows, row{name: "mixed-signature batch " + target, method: "POST", path: "/countBatch",
			body: fmt.Sprintf(`{"query":%q,"structures":[%q,"h"]}`, edge, target)})
	}
	// A name that resolves to nothing.
	rows = append(rows,
		row{name: "count on nope", method: "POST", path: "/count",
			body: fmt.Sprintf(`{"query":%q,"structure":"nope"}`, edge)},
		row{name: "countBatch on nope", method: "POST", path: "/countBatch",
			body: fmt.Sprintf(`{"query":%q,"structures":["g","nope"]}`, edge)},
		row{name: "get nope", method: "GET", path: "/structures/nope"},
		row{name: "append to nope", method: "POST", path: "/structures/nope/facts", body: `{"facts":"E(a,b)."}`},
		row{name: "subscribe to nope", method: "POST", path: "/subscriptions",
			body: fmt.Sprintf(`{"query":%q,"structure":"nope"}`, edge)})
	for _, eng := range []string{"brute", "projection", "fpt-nocore"} {
		rows = append(rows, row{name: "subscribe: engine " + eng, method: "POST", path: "/subscriptions", mentions: "engine",
			body: fmt.Sprintf(`{"query":%q,"structure":"g","engine":%q}`, edge, eng)})
	}
	rows = append(rows,
		row{name: "empty structures", method: "POST", path: "/countBatch", body: fmt.Sprintf(`{"query":%q,"structures":[]}`, edge)},
		row{name: "create: empty name", method: "POST", path: "/structures", body: `{"name":"","facts":"E(a,b)."}`},
		row{name: "create: duplicate name", method: "POST", path: "/structures", body: `{"name":"g","facts":"E(a,b)."}`},
		// "partitions" is no field of a create on either surface: the
		// router must not accept a body a single node refuses.
		row{name: "create: a partitions field of 1", method: "POST", path: "/structures", body: `{"name":"n","facts":"E(a,b).","partitions":1}`},
		row{name: "create: a partitions field of 3", method: "POST", path: "/structures", body: `{"name":"n","facts":"E(a,b).","partitions":3}`},
		row{name: "create: malformed facts", method: "POST", path: "/structures", body: `{"name":"m","facts":"E(a,"}`},
		row{name: "create: unknown JSON field", method: "POST", path: "/structures", body: `{"name":"u","facts":"E(a,b).","bogus":1}`},
		row{name: "append: arity mismatch", method: "POST", path: "/structures/g/facts", body: `{"facts":"E(a,b,c)."}`},
		row{name: "append: unknown JSON field", method: "POST", path: "/structures/g/facts", body: `{"facts":"E(a,b).","bogus":1}`},
		row{name: "subscribe: unknown engine", method: "POST", path: "/subscriptions",
			body: fmt.Sprintf(`{"query":%q,"structure":"g","engine":"warp"}`, edge)},
		row{name: "subscribe: malformed query", method: "POST", path: "/subscriptions", body: `{"query":"nope","structure":"g"}`},
		row{name: "read unknown subscription", method: "GET", path: "/subscriptions/sub-999"},
		row{name: "read unknown subscription, shard-shaped id", method: "GET", path: "/subscriptions/s0~sub-999"},
		row{name: "delete unknown subscription", method: "DELETE", path: "/subscriptions/sub-999"},
		row{name: "delete unknown subscription, shard-shaped id", method: "DELETE", path: "/subscriptions/s0~sub-999"},
	)

	// A subscription read is a read: subscribing to a hard query computes
	// nothing and succeeds; reading it is refused like the /count above.
	var hardSub [2]string
	for i, base := range []string{router, single} {
		sub, err := serve.NewClient(base, nil).Subscribe(t.Context(), triQuery, "g")
		if err != nil {
			t.Fatalf("subscribing to a hard query must succeed: %v", err)
		}
		hardSub[i] = "/subscriptions/" + sub.ID
	}
	rows = append(rows, row{name: "read a hard subscription (typed 422)", method: "GET", path: hardSub[0], singlePath: hardSub[1]})

	for _, r := range rows {
		got := probe(t, router, r.method, r.path, r.body)
		singlePath := r.path
		if r.singlePath != "" {
			singlePath = r.singlePath
		}
		want := probe(t, single, r.method, singlePath, r.body)
		if want.status < 400 {
			t.Errorf("%s: the single node answers HTTP %d; every row is meant to be an error", r.name, want.status)
		}
		if got.status != want.status || got.caseStr != want.caseStr {
			t.Errorf("%s: router HTTP %d case %q (%s), want HTTP %d case %q (%s)",
				r.name, got.status, got.caseStr, got.errMsg, want.status, want.caseStr, want.errMsg)
		}
		for who, a := range map[string]answer{"router": got, "single node": want} {
			if a.status == http.StatusServiceUnavailable && a.retryAfter == "" {
				t.Errorf("%s: %s answers 503 without Retry-After", r.name, who)
			}
			if a.status >= 400 && a.errMsg == "" {
				t.Errorf("%s: %s answers HTTP %d without an error message", r.name, who, a.status)
			}
			if r.mentions != "" && (a.status != http.StatusBadRequest || !strings.Contains(a.errMsg, r.mentions)) {
				t.Errorf("%s: %s answers HTTP %d %q, want a 400 naming %q", r.name, who, a.status, a.errMsg, r.mentions)
			}
		}
	}

	// The typed 422 keeps its case through the hop (the comparison above
	// would also pass on two empty cases).
	for _, target := range []string{"g", "big"} {
		a := probe(t, router, "POST", "/count", fmt.Sprintf(`{"query":%q,"structure":%q}`, triQuery, target))
		if a.status != http.StatusUnprocessableEntity || a.caseStr == "" {
			t.Errorf("hard exact count on %s through the router: HTTP %d case %q, want 422 with a case", target, a.status, a.caseStr)
		}
	}
	for i, base := range []string{router, single} {
		if a := probe(t, base, "GET", hardSub[i], ""); a.status != http.StatusUnprocessableEntity || a.caseStr == "" {
			t.Errorf("hard subscription read on surface %d (0 = router): HTTP %d case %q, want 422 with a case", i, a.status, a.caseStr)
		}
	}
}

// TestEveryRouteOnBothSurfaces walks the exported route table and
// requires a success from a single node and from the router on every
// row: the table is the whole API on both, so a route registered on one
// surface only — a second mux — has nowhere to hide.  The structure's
// name has the shape of no reserved name on either surface: the two
// accept the same names.
func TestEveryRouteOnBothSurfaces(t *testing.T) {
	const edge, name = `q(x,y) := E(x,y)`, "g@p0"
	bodies := map[string]string{
		"POST /structures":              `{"name":"fresh@p1","facts":"E(a,b)."}`,
		"POST /structures/{name}/facts": `{"facts":"E(b,c)."}`,
		"POST /count":                   fmt.Sprintf(`{"query":%q,"structure":%q}`, edge, name),
		"POST /countBatch":              fmt.Sprintf(`{"query":%q,"structures":[%q]}`, edge, name),
		"POST /subscriptions":           fmt.Sprintf(`{"query":%q,"structure":%q}`, edge, name),
	}
	shard := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(shard.Close)
	co, err := New(Config{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	surfaces := map[string]http.Handler{
		"single node": serve.New(serve.Config{}).Handler(),
		"router":      co.Handler(),
	}
	if len(serve.Routes) != 12 {
		t.Errorf("the route table has %d rows, the API has 12 routes", len(serve.Routes))
	}
	for who, h := range surfaces {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		cl := serve.NewClient(ts.URL, nil)
		if _, err := cl.CreateStructure(t.Context(), name, "E(a,b).", nil); err != nil {
			t.Fatal(err)
		}
		sub, err := cl.Subscribe(t.Context(), edge, name)
		if err != nil {
			t.Fatal(err)
		}
		fill := strings.NewReplacer("{name}", name, "{id}", sub.ID)
		for _, rt := range serve.Routes {
			a := probe(t, ts.URL, rt.Method, fill.Replace(rt.Path), bodies[rt.Method+" "+rt.Path])
			if a.status < 200 || a.status >= 300 {
				t.Errorf("%s: %s %s answers HTTP %d (%s)", who, rt.Method, rt.Path, a.status, a.errMsg)
			}
		}
	}
}
