package main

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"sort"
	"sync"

	"repro/internal/count"
	"repro/internal/parser"
	"repro/internal/serve"
)

// env is a booted fleet with one instance's structures loaded and
// warmed: what an op executes against.
type env struct {
	inst  *instance
	fleet *fleet
	hc    *http.Client
	cl    *serve.Client
	// ctl is the host-speed control the closed loop time-slices with
	// (measured runs only; nil otherwise).
	ctl    *control
	subIDs []string
	// v0 and t0 are the appendable structure's version and tuple count
	// after load (append-mix's replay starts from them).
	v0 uint64
	t0 int
}

// setupEnv boots a fleet and loads the instance into it.  clients sizes
// the keep-alive pool.
func setupEnv(ctx context.Context, ln launcher, inst *instance, scratch string, clients int) (*env, error) {
	f, err := ln.boot(inst.spec.topo, scratch)
	if err != nil {
		return nil, err
	}
	e := &env{inst: inst, fleet: f, hc: newHTTPClient(clients)}
	e.cl = serve.NewClient(f.entry.url, e.hc)
	if err := e.load(ctx); err != nil {
		e.stop()
		return nil, err
	}
	if ln.control {
		if e.ctl, err = startControl(ln, inst.spec.control, clients); err == nil {
			err = e.ctl.op()
		}
		if err != nil {
			e.stop()
			return nil, err
		}
	}
	return e, nil
}

// load creates the instance's structures through the fleet's entry
// node, registers its subscriptions and runs its warm-up ops.
func (e *env) load(ctx context.Context) error {
	inst := e.inst
	for i, name := range inst.names {
		info, err := e.cl.CreateStructure(ctx, name, inst.facts[i], nil)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		e.v0, e.t0 = info.Version, info.Tuples
	}
	for _, q := range inst.subs {
		info, err := e.cl.Subscribe(ctx, inst.queries[q], inst.names[0])
		if err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		e.subIDs = append(e.subIDs, info.ID)
	}
	var log clientLog
	for _, o := range inst.warmOps {
		out, err := e.exec(ctx, o)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o.Class, err)
		}
		// Warm-up answers are judged like timed ones.
		if msg := log.check(inst, -1, o, out); msg != "" {
			return fmt.Errorf("warm-up %s: %s", o.Class, msg)
		}
	}
	return nil
}

// stop tears the fleet down and releases the client's connections.
func (e *env) stop() {
	e.hc.CloseIdleConnections()
	e.fleet.stop()
	if e.ctl != nil {
		e.ctl.stop()
		e.ctl = nil
	}
}

// outcome is what one op returned, in the shape the checker needs.
type outcome struct {
	counts  []*big.Int
	version uint64
	relErr  float64
	info    serve.StructureInfo
}

// exec performs one op through the typed client.
func (e *env) exec(ctx context.Context, o op) (outcome, error) {
	inst := e.inst
	switch o.Kind {
	case opCount:
		v, resp, err := e.cl.Count(ctx, inst.queryText(o), inst.names[o.Struct])
		return outcome{counts: []*big.Int{v}, version: resp.Version}, err
	case opBatch:
		vs, _, err := e.cl.CountBatch(ctx, inst.queryText(o), inst.names)
		return outcome{counts: vs}, err
	case opApprox:
		v, resp, err := e.cl.CountWith(ctx, serve.CountRequest{
			Query: inst.queryText(o), Structure: inst.names[o.Struct],
			Mode: "approx", Epsilon: approxEpsilon, Delta: approxDelta, Seed: o.Seed,
		})
		return outcome{counts: []*big.Int{v}, version: resp.Version, relErr: resp.RelError}, err
	case opAppend:
		info, err := e.cl.AppendFactsBatch(ctx, inst.names[0], o.Facts, batchID(o.Batch))
		return outcome{info: info, version: info.Version}, err
	case opSubRead:
		v, info, err := e.cl.SubscriptionCount(ctx, e.subIDs[o.Sub])
		return outcome{counts: []*big.Int{v}, version: info.Version}, err
	}
	return outcome{}, fmt.Errorf("unknown op kind %d", o.Kind)
}

// appendRec, readRec and coldRec are the observations whose check needs
// the whole run: append order, reads per version, ad-hoc query counts.
type appendRec struct {
	batch   int
	version uint64
}

type readRec struct {
	sub     int
	version uint64
	count   *big.Int
}

type coldRec struct {
	index int
	count *big.Int
}

// clientLog is one client goroutine's private record of a run; logs are
// merged after the clients stop, so the hot loop takes no locks.
type clientLog struct {
	latMS    []float64 // per op, in issue order per client
	endMS    []float64 // when each ended, ms since the loop began
	classes  []string
	failed   int
	failures []string // first few messages, for the report

	// coverage counts checked ops by the oracle that covered them.
	coverage map[string]int

	approxN, approxMiss int

	appends []appendRec
	reads   []readRec
	cold    []coldRec
}

func (l *clientLog) cover(kind string, n int) {
	if l.coverage == nil {
		l.coverage = make(map[string]int)
	}
	l.coverage[kind] += n
}

func (l *clientLog) fail(format string, args ...any) string {
	msg := fmt.Sprintf(format, args...)
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, msg)
	}
	return msg
}

// check judges one op's outcome against the oracle, recording what can
// only be judged after the run.  index is the op's position in the op
// list (-1 for warm-up ops).  It returns "" or the failure message.
func (l *clientLog) check(inst *instance, index int, o op, out outcome) string {
	want := func(q, s int) (*big.Int, string) {
		if inst.oracle.direct[q][s] {
			return inst.oracle.want[q][s], "epdirect"
		}
		return inst.oracle.want[q][s], "fpt"
	}
	switch o.Kind {
	case opCount:
		if o.Query < 0 {
			// Ad-hoc query: the count must at least be a possible one;
			// a seeded sample is recounted after the run (verifyCold).
			max := new(big.Int).Exp(big.NewInt(int64(inst.mirror[o.Struct].Size())), big.NewInt(2), nil)
			if out.counts[0].Sign() < 0 || out.counts[0].Cmp(max) > 0 {
				return l.fail("op %d: count %v outside [0, %v]", index, out.counts[0], max)
			}
			l.cold = append(l.cold, coldRec{index: index, count: out.counts[0]})
			return ""
		}
		w, kind := want(o.Query, o.Struct)
		if out.counts[0].Cmp(w) != 0 {
			return l.fail("op %d: %s on %s = %v, want %v", index, o.Class, inst.names[o.Struct], out.counts[0], w)
		}
		l.cover(kind, 1)
	case opBatch:
		if len(out.counts) != len(inst.names) {
			return l.fail("op %d: batch returned %d counts, want %d", index, len(out.counts), len(inst.names))
		}
		kind := "epdirect"
		for s := range inst.names {
			w, k := want(o.Query, s)
			if out.counts[s].Cmp(w) != 0 {
				return l.fail("op %d: batch %s[%d] = %v, want %v", index, o.Class, s, out.counts[s], w)
			}
			if k != "epdirect" {
				kind = k
			}
		}
		l.cover(kind, 1)
	case opApprox:
		// rel_error above ε means the sampler hit its cap before closing
		// the interval (approx.Result.Converged = false): a failed op.
		if out.relErr > approxEpsilon*convergedSlack {
			return l.fail("op %d: %s estimate did not converge (rel_error %.4f > ε)", index, o.Class, out.relErr)
		}
		w, _ := want(o.Query, o.Struct)
		wf, _ := new(big.Float).SetInt(w).Float64()
		ef, _ := new(big.Float).SetInt(out.counts[0]).Float64()
		l.approxN++
		if math.Abs(ef-wf) > approxEpsilon*wf {
			l.approxMiss++
		}
		l.cover("ground-truth", 1)
	case opAppend:
		if out.info.Inserted != appendBatchEdges || out.info.BatchID != batchID(o.Batch) {
			return l.fail("op %d: append b%d inserted %d (batch id %q)", index, o.Batch, out.info.Inserted, out.info.BatchID)
		}
		l.appends = append(l.appends, appendRec{batch: o.Batch, version: out.version})
	case opSubRead:
		l.reads = append(l.reads, readRec{sub: o.Sub, version: out.version, count: out.counts[0]})
	}
	return ""
}

// merge folds another client's log into l (latencies stay per client;
// see runResult).
func (l *clientLog) merge(o *clientLog) {
	l.latMS = append(l.latMS, o.latMS...)
	l.endMS = append(l.endMS, o.endMS...)
	l.classes = append(l.classes, o.classes...)
	l.failed += o.failed
	for _, f := range o.failures {
		if len(l.failures) < 5 {
			l.failures = append(l.failures, f)
		}
	}
	for k, v := range o.coverage {
		l.cover(k, v)
	}
	l.approxN += o.approxN
	l.approxMiss += o.approxMiss
	l.appends = append(l.appends, o.appends...)
	l.reads = append(l.reads, o.reads...)
	l.cold = append(l.cold, o.cold...)
}

// convergedSlack is the tolerance on "rel_error ≤ ε": the server rounds
// the estimate to an integer after the stopping rule compared the
// unrounded mean, which can push the reported ratio a hair above ε.  A
// sampler that stopped at its cap reports a visibly wider interval.
const convergedSlack = 1.01

// coldSampleEvery is the stride of cold-query's recount sample: every
// query costs the oracle as much as it cost the server, so recounting
// all of them would double the run.
const coldSampleEvery = 16

// coldDirectChecks is how many of the sampled queries EPDirect also
// recounts (≈ 0.15 s each at |B| = 10).
const coldDirectChecks = 4

// verifyCold recounts a seeded sample of cold-query's ad-hoc queries
// with the FPT oracle (and the first few with EPDirect too); the rest
// stay range-checked.
func (l *clientLog) verifyCold(inst *instance) {
	sort.Slice(l.cold, func(i, j int) bool { return l.cold[i].index < l.cold[j].index })
	var sample []coldRec
	for _, r := range l.cold {
		if r.index%coldSampleEvery == 0 {
			sample = append(sample, r)
		}
	}
	b := inst.mirror[0]
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(sample) {
					return
				}
				r := sample[k]
				text := inst.gen(r.index).Text
				q, err := parser.ParseQuery(text)
				var want *big.Int
				if err == nil {
					want, err = fptCount(q, b)
				}
				kind := "fpt-sample"
				if err == nil && k < coldDirectChecks && epDirectEligible(q, b) {
					var d *big.Int
					d, err = count.EPDirect(q, b)
					if err == nil && d.Cmp(want) != 0 {
						err = fmt.Errorf("oracles disagree: EPDirect %v, FPT %v", d, want)
					}
					kind = "epdirect-sample"
				}
				mu.Lock()
				switch {
				case err != nil:
					l.fail("op %d: oracle: %v", r.index, err)
				case r.count.Cmp(want) != 0:
					l.fail("op %d: %q = %v, want %v", r.index, text, r.count, want)
				default:
					l.cover(kind, 1)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.cover("range-only", len(l.cold)-len(sample))
}

// verifyAppends checks append-mix after the run: the append responses
// must form the gap-free version chain v0+3, v0+6, …; every
// subscription read must equal the closed-form count at the version it
// observed; and, after the fleet was killed and restarted on its data
// directory, the recovered structure must hold every acknowledged batch
// (version, tuple count and both counts equal the sequential replay,
// which the FPT oracle confirms on the final state).  A lost batch is a
// failed op.
func (l *clientLog) verifyAppends(ctx context.Context, e *env) {
	inst := e.inst
	sort.Slice(l.appends, func(i, j int) bool { return l.appends[i].version < l.appends[j].version })
	g := digraphOf(inst.mirror[0])
	// counts[v] is the (tri, c4) pair at version v.
	type pair struct{ tri, c4 int64 }
	counts := map[uint64]pair{e.v0: {g.triangles(), g.fourCycles()}}
	v := e.v0
	final := inst.mirror[0].Clone()
	for _, a := range l.appends {
		v += appendBatchEdges
		if a.version != v {
			l.fail("append b%d acknowledged at version %d, want %d (lost or duplicated batch)", a.batch, a.version, v)
			return
		}
		for _, edge := range inst.batches[a.batch] {
			g.addEdge(edge[0], edge[1])
			_ = final.AddTuple("E", edge[0], edge[1])
		}
		counts[v] = pair{g.triangles(), g.fourCycles()}
	}
	for _, r := range l.reads {
		c, ok := counts[r.version]
		if !ok {
			l.fail("subscription read at version %d, which no append produced", r.version)
			continue
		}
		want := c.tri
		if inst.subs[r.sub] == 1 {
			want = c.c4
		}
		if !r.count.IsInt64() || r.count.Int64() != want {
			l.fail("subscription %d at version %d = %v, want %d", r.sub, r.version, r.count, want)
			continue
		}
		l.cover("replay", 1)
	}

	// Durability: kill, restart on the same directory, compare.
	if err := e.fleet.crashRestart(); err != nil {
		l.fail("restart after kill: %v", err)
		return
	}
	e.hc.CloseIdleConnections()
	e.cl = serve.NewClient(e.fleet.entry.url, e.hc)
	info, err := e.cl.Structure(ctx, inst.names[0])
	if err != nil {
		l.fail("recovered structure: %v", err)
		return
	}
	wantTuples := e.t0 + appendBatchEdges*len(l.appends)
	if info.Version != v || info.Tuples != wantTuples {
		lost := (wantTuples - info.Tuples + appendBatchEdges - 1) / appendBatchEdges
		if lost < 1 {
			lost = 1
		}
		for i := 0; i < lost; i++ {
			l.fail("after kill+restart: version %d tuples %d, want %d and %d (acknowledged batch lost)", info.Version, info.Tuples, v, wantTuples)
		}
		return
	}
	for q, want := range []int64{counts[v].tri, counts[v].c4} {
		src, err := parser.ParseQuery(inst.queries[q])
		if err != nil {
			l.fail("oracle: %v", err)
			return
		}
		ref, err := fptCount(src, final)
		if err != nil || !ref.IsInt64() || ref.Int64() != want {
			l.fail("closed-form oracle disagrees with the FPT oracle on the final state: %v vs %d (%v)", ref, want, err)
			return
		}
		got, _, err := e.cl.Count(ctx, inst.queries[q], inst.names[0])
		if err != nil || got.Cmp(ref) != 0 {
			l.fail("after kill+restart: %s = %v, want %v (%v)", inst.queries[q], got, ref, err)
			return
		}
	}
	l.cover("recovery", 1)
}
