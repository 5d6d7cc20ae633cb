package main

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"os"
	"strconv"
	"time"

	"repro/internal/approx"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/serve"
	"repro/internal/structure"
	"repro/internal/term"
	"repro/internal/wal"
)

// The traced run.  A layer cannot be opened from outside, so the same
// kind of ops is replayed on a ladder of entry points and a layer's self
// time is the difference between adjacent rungs:
//
//	rung 0  serve.Client → loopback → in-process serve.Server (behind an
//	        in-process cluster.Coordinator for routed-read), every
//	        handler wrapped in a timing handler
//	rung 1  direct core.NewCounter / Counter.CountCtx / CountApproxCtx,
//	        Registry.AppendFactsBatch / SubscriptionCount
//	rung 2  stage calls: parser, eptrans.Compile, term.Fingerprint,
//	        classify.AnalyzeCored, engine.Compile, engine.NewSession +
//	        CountInCtx, engine.CountKeyedCtx, approx.Estimator.Count,
//	        Structure.AddFact / DeltaSince, wal.Store
//
// Rungs are compared by median per op class; see runTraced for how the
// process-global caches are kept from warming one rung with another.

// layerDefs are the per-layer metrics, <module>.<metric>.  Every traced
// run reports all of them; a layer the workload never enters reads 0.
var layerDefs = []struct{ name, unit, better string }{
	{"parser.query_us", "us", "lower"},
	{"parser.facts_us_per_ktuple", "us", "lower"},
	{"eptrans.compile_us", "us", "lower"},
	{"eptrans.raw_terms", "count", "lower"},
	{"eptrans.minus_terms", "count", "lower"},
	{"term.fingerprint_us", "us", "lower"},
	{"term.dedup_ratio", "ratio", "lower"},
	{"classify.analyze_us", "us", "lower"},
	{"classify.memo_hit_share", "ratio", "higher"},
	{"engine.plan_compile_us", "us", "lower"},
	{"engine.plan_shared_share", "ratio", "higher"},
	{"engine.cold_count_us.join", "us", "lower"},
	{"engine.cold_count_us.exists", "us", "lower"},
	{"engine.memo_count_us", "us", "lower"},
	{"engine.delta_advance_us", "us", "lower"},
	{"engine.delta_advance_share", "ratio", "higher"},
	{"engine.session_evictions", "count", "lower"},
	{"engine.arena_chunks_live", "count", "lower"},
	{"approx.count_us", "us", "lower"},
	{"approx.samples", "count", "lower"},
	{"approx.converged_share", "ratio", "higher"},
	{"approx.miss_share", "ratio", "lower"},
	{"approx.rel_err_p90", "ratio", "lower"},
	{"structure.add_fact_ns", "ns", "lower"},
	{"structure.delta_since_us", "us", "lower"},
	{"core.new_counter_us", "us", "lower"},
	{"core.count_cold_us", "us", "lower"},
	{"core.count_warm_us", "us", "lower"},
	{"core.self_us", "us", "lower"},
	{"serve.count_handler_us", "us", "lower"},
	{"serve.batch_handler_us", "us", "lower"},
	{"serve.append_handler_us", "us", "lower"},
	{"serve.subread_handler_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.http_self_us", "us", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.deadline", "count", "lower"},
	{"wal.append_us.never", "us", "lower"},
	{"wal.append_us.batch", "us", "lower"},
	{"wal.append_us.always", "us", "lower"},
	{"wal.syncs_per_append", "ratio", "lower"},
	{"wal.bytes_per_fact_byte", "ratio", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"wal.compact_ms", "ms", "lower"},
	{"cluster.hop_us", "us", "lower"},
	{"cluster.scatter_us", "us", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.rerouted", "count", "lower"},
	{"trace.coverage_share", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
}

var layerNames = func() []string {
	names := make([]string, len(layerDefs))
	for i, d := range layerDefs {
		names[i] = d.name
	}
	return names
}()

// Rung shares of the traced run's time budget, and the op cap that
// keeps trace.json bounded on the fastest workload.
const (
	rung0Share  = 0.45
	rung1Share  = 0.25
	rung2Share  = 0.30
	tracedOpCap = 20000
)

// rootName names a rung's per-op root span.  Warm-up ops (index -1) get
// their own name: their stage spans are real measurements, but their
// totals must not enter the per-class medians of the timed ops.
func rootName(rung, i int) string {
	if i < 0 {
		return "L" + strconv.Itoa(rung) + ".warmup"
	}
	return "L" + strconv.Itoa(rung) + ".op"
}

// replay runs fn over the op list until the time budget is spent, the
// op cap is reached, the list ends, or fn fails.
func replay(inst *instance, budget time.Duration, fn func(i int, o op) error) error {
	deadline := time.Now().Add(budget)
	for i := 0; i < tracedOpCap && inst.has(i) && time.Now().Before(deadline); i++ {
		if err := fn(i, inst.gen(i)); err != nil {
			return err
		}
	}
	return nil
}

// series collects samples by name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) med(name string) float64    { return median(s[name]) }

// tracedResult is the traced run's outcome: every per-layer metric, and
// rung 0's checked op counts.
type tracedResult struct {
	metrics           map[string]metric
	attempted, failed int
	failures          []string
}

// runTraced replays one workload on the ladder and derives the
// per-layer metrics.  End-to-end numbers are never taken from it.
func runTraced(ctx context.Context, sp *spec, opt options) (tracedResult, []span, error) {
	rec := newRecorder(sp.name)
	budget := time.Duration(opt.seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(float64(budget) * f) }

	// Plan, classification and session caches are process-global, and no
	// rung may warm another.  Sessions are keyed by structure identity and
	// every rung builds its own structures, and a fixed query's plan is
	// warm after its first use on any rung anyway; only cold-query, whose
	// queries are its inputs, needs disjoint inputs per rung: rung k reads
	// query stream k.  Everything else is equal across rungs, which makes
	// them comparable op for op.
	r0, err := rungHTTP(ctx, sp, opt, rec, share(rung0Share))
	if err != nil {
		return tracedResult{}, nil, fmt.Errorf("%s: rung 0: %w", sp.name, err)
	}
	if err := rungCore(ctx, sp, opt, rec, share(rung1Share)); err != nil {
		return tracedResult{}, nil, fmt.Errorf("%s: rung 1: %w", sp.name, err)
	}
	r2, err := rungStages(ctx, sp, opt, rec, share(rung2Share))
	if err != nil {
		return tracedResult{}, nil, fmt.Errorf("%s: rung 2: %w", sp.name, err)
	}

	vals := derive(rec.spans, r0, r2)
	res := tracedResult{metrics: make(map[string]metric, len(layerDefs)), attempted: r0.attempted, failed: r0.log.failed, failures: r0.log.failures}
	for _, d := range layerDefs {
		res.metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res, rec.spans, nil
}

// ---- rung 0: over HTTP, in-process servers with timing handlers ----

type httpRung struct {
	log       clientLog
	attempted int
	// untraced and traced are the client-side latencies (µs) by op
	// class of the untraced and the traced half of the ops.
	untraced, traced series
	cpu              time.Duration
	stats            serve.StatsResponse
	// Deltas of the process-global counters over the rung.
	evictions, advances, fullRecounts uint64
	classifyHits, classifyAnalyses    uint64
	arenaLive                         int64
}

func rungHTTP(ctx context.Context, sp *spec, opt options, rec *recorder, budget time.Duration) (*httpRung, error) {
	inst := newInstance(sp, opt.seed, opt.quick)
	if err := inst.prepareOracle(); err != nil {
		return nil, err
	}
	tr := &tracer{rec: rec}
	e, err := setupEnv(ctx, launcher{wrap: tr.wrap}, inst, opt.outDir, 1)
	if err != nil {
		return nil, err
	}
	defer func() { e.stop() }()

	r := &httpRung{untraced: series{}, traced: series{}}
	sess0, delta0, cls0 := engine.SessionStats(), engine.DeltaStats(), classify.Stats()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	// A failed op is recorded, not fatal, so the replay itself cannot fail.
	_ = replay(inst, budget, func(i int, o op) error {
		// Traced and untraced ops alternate in pairs, so neither half
		// is tied to the parity of the op index (cold-query derives each
		// query's seed from it).
		traced := i%4 < 2
		var id int
		if traced {
			id = rec.start(0, "http.client", o.Class, 0, i)
			tr.op.Store(int64(i))
			tr.clientID.Store(int64(id))
			tr.on.Store(true)
		}
		t0 := time.Now()
		out, err := e.exec(ctx, o)
		us := float64(time.Since(t0)) / 1e3
		if traced {
			tr.on.Store(false)
			rec.end(id)
			r.traced.add(o.Class, us)
		} else {
			r.untraced.add(o.Class, us)
		}
		r.attempted++
		if err != nil {
			r.log.fail("op %d: %s: %v", i, o.Class, err)
			return nil
		}
		r.log.check(inst, i, o, out)
		return nil
	})
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	sess1, delta1, cls1 := engine.SessionStats(), engine.DeltaStats(), classify.Stats()
	r.evictions = sess1.Evictions - sess0.Evictions
	r.advances, r.fullRecounts = delta1.Advances-delta0.Advances, delta1.FullRecounts-delta0.FullRecounts
	r.classifyHits, r.classifyAnalyses = cls1.Hits-cls0.Hits, cls1.Analyses-cls0.Analyses
	r.arenaLive = engine.ArenaChunksLive()
	if r.stats, err = e.cl.Stats(ctx); err != nil {
		return nil, err
	}
	switch sp.name {
	case "cold-query":
		r.log.verifyCold(inst)
	case "append-mix":
		r.log.verifyAppends(ctx, e)
	}
	return r, nil
}

// ---- rung 1: direct core and registry calls ----

func rungCore(ctx context.Context, sp *spec, opt options, rec *recorder, budget time.Duration) error {
	inst := newInstanceStream(sp, opt.seed, 1, opt.quick)
	sig := inst.mirror[0].Signature()
	counters := make(map[string]*core.Counter)

	// Appends and subscription reads go through a Registry, durable like
	// the workload's server, so that rung 0 minus rung 1 is the HTTP
	// handler alone.
	var (
		reg    *serve.Registry
		subIDs []string
	)
	if len(inst.subs) > 0 {
		reg = serve.NewRegistry(0, 0)
		defer func() { _ = reg.Close() }()
		dir, err := os.MkdirTemp(opt.outDir, "rung1-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, rep, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch})
		if err != nil {
			return err
		}
		if err := reg.AttachStore(st, rep, 0); err != nil {
			_ = st.Close()
			return err
		}
		if _, err := reg.CreateStructure(inst.names[0], inst.facts[0], nil); err != nil {
			return err
		}
		for _, q := range inst.subs {
			info, err := reg.Subscribe(inst.queries[q], inst.names[0], "")
			if err != nil {
				return err
			}
			subIDs = append(subIDs, info.ID)
		}
	}

	do := func(i int, o op) error {
		root := rec.start(1, rootName(1, i), o.Class, 0, i)
		defer rec.end(root)
		var err error
		switch o.Kind {
		case opAppend:
			rec.timed(1, "serve.registry.append", o.Class, root, i, func() {
				_, err = reg.AppendFactsBatch(inst.names[0], o.Facts, batchID(o.Batch))
			})
			return err
		case opSubRead:
			rec.timed(1, "serve.registry.subread", o.Class, root, i, func() {
				_, err = reg.SubscriptionCount(ctx, subIDs[o.Sub])
			})
			return err
		}
		text := inst.queryText(o)
		c := counters[text]
		if c == nil {
			var q logic.Query
			rec.timed(1, "parser.query", o.Class, root, i, func() { q, err = parser.ParseQuery(text) })
			if err != nil {
				return err
			}
			rec.timed(1, "core.new_counter", o.Class, root, i, func() {
				c, err = core.NewCounter(q, sig, count.EngineFPT)
			})
			if err != nil {
				return err
			}
			if o.Query >= 0 {
				counters[text] = c
			}
		}
		switch o.Kind {
		case opCount:
			miss0 := c.Stats().CountCacheMisses
			rec.timedAs(1, o.Class, root, i, func() string {
				_, err = c.CountCtx(ctx, inst.mirror[o.Struct])
				if c.Stats().CountCacheMisses > miss0 {
					return "core.count_cold"
				}
				return "core.count_warm"
			})
		case opBatch:
			rec.timed(1, "core.count_batch", o.Class, root, i, func() {
				_, err = c.CountBatchCtx(ctx, inst.mirror)
			})
		case opApprox:
			rec.timed(1, "core.count_approx", o.Class, root, i, func() {
				_, err = c.CountApproxCtx(ctx, inst.mirror[o.Struct], approx.Params{Epsilon: approxEpsilon, Delta: approxDelta, Seed: o.Seed})
			})
		}
		return err
	}

	for _, o := range inst.warmOps {
		if err := do(-1, o); err != nil {
			return err
		}
	}
	return replay(inst, budget, do)
}

// ---- rung 2: stage calls ----

// stagePlan is one query compiled stage by stage.
type stagePlan struct {
	terms []stageTerm
	// exists reports whether some term quantifies a variable: the
	// executor then runs ∃-component hom predicates besides the join.
	exists bool
}

type stageTerm struct {
	f    pp.PP
	fp   string
	plan engine.Plan
	est  *approx.Estimator
}

type stageRung struct {
	// Counters that are not span durations.
	rawTerms, minusTerms, liveClasses []float64
	factTuples, factBytes             float64
	approxN, approxMiss, approxConv   int
	approxSamples, approxRelErr       []float64
	walSyncs, walAppends              float64
	walBytes                          float64
	recoverMS, compactMS              float64
}

func rungStages(ctx context.Context, sp *spec, opt options, rec *recorder, budget time.Duration) (*stageRung, error) {
	inst := newInstanceStream(sp, opt.seed, 2, opt.quick)
	r := &stageRung{}
	if sp.name == "approx-hard" {
		// The exact counts the estimates are judged against.
		if err := inst.prepareOracle(); err != nil {
			return nil, err
		}
	}
	sig := inst.mirror[0].Signature()

	// Structure load, as the server does it on create.
	for _, facts := range inst.facts {
		var b *structure.Structure
		var err error
		rec.timed(2, "parser.facts", "load", 0, -1, func() { b, err = parser.ParseStructure(facts, nil) })
		if err != nil {
			return nil, err
		}
		r.factTuples += float64(b.NumTuples())
	}

	plans := make(map[string]*stagePlan)
	compile := func(text, class string, root, i int) (*stagePlan, error) {
		var (
			q    logic.Query
			comp *eptrans.Compiled
			err  error
		)
		rec.timed(2, "parser.query", class, root, i, func() { q, err = parser.ParseQuery(text) })
		if err != nil {
			return nil, err
		}
		compileID := rec.start(2, "eptrans.compile", class, root, i)
		comp, err = eptrans.Compile(q, sig)
		rec.end(compileID)
		if err != nil {
			return nil, err
		}
		st := comp.Pool.Stats()
		r.rawTerms = append(r.rawTerms, float64(st.Raw))
		r.minusTerms = append(r.minusTerms, float64(len(comp.Minus)))
		r.liveClasses = append(r.liveClasses, float64(len(comp.Pool.Live())))
		plan := &stagePlan{}
		for _, t := range comp.Minus {
			stt := stageTerm{f: t.Formula}
			// Compile already fingerprinted every term while interning
			// it; the stage is timed again on its own as a child of the
			// compile span, so it is not charged to the op twice.
			rec.timed(2, "term.fingerprint", class, compileID, i, func() { stt.fp, _ = term.Fingerprint(t.Formula) })
			rec.timed(2, "classify.analyze", class, root, i, func() { _ = classify.AnalyzeCored(t.Formula) })
			rec.timed(2, "engine.plan_compile", class, root, i, func() { stt.plan, err = engine.Compile(t.Formula, engine.FPT) })
			if err != nil {
				return nil, err
			}
			if t.Formula.A.Size() > len(t.Formula.S) {
				plan.exists = true
			}
			plan.terms = append(plan.terms, stt)
		}
		return plan, nil
	}
	planFor := func(o op, root, i int) (*stagePlan, error) {
		if o.Query < 0 {
			return compile(o.Text, o.Class, root, i)
		}
		text := inst.queries[o.Query]
		if p := plans[text]; p != nil {
			return p, nil
		}
		p, err := compile(text, o.Class, root, i)
		plans[text] = p
		return p, err
	}
	coldCount := func(p *stagePlan, b *structure.Structure, class string, root, i int) error {
		name := "engine.cold_count.join"
		if p.exists {
			name = "engine.cold_count.exists"
		}
		var err error
		rec.timed(2, name, class, root, i, func() {
			sess := engine.NewSession(b)
			for _, t := range p.terms {
				if _, err = engine.CountInCtx(ctx, t.plan, sess, 0); err != nil {
					return
				}
			}
		})
		return err
	}
	memoCount := func(p *stagePlan, b *structure.Structure, name, class string, root, i int) error {
		var err error
		rec.timed(2, name, class, root, i, func() {
			sess := engine.SessionFor(b)
			for _, t := range p.terms {
				if _, _, err = engine.CountKeyedCtx(ctx, t.plan, t.fp, sess, 0); err != nil {
					return
				}
			}
		})
		return err
	}
	// A workload without warm-up times the cold count on every op; a
	// warmed one counts cold once per (query, structure) pair — in the
	// measured run that happens in set-up — and from the memo afterwards.
	coldWorkload := len(inst.warmOps) == 0
	type pair struct {
		text string
		s    int
	}
	warmed := make(map[pair]bool)
	exactOn := func(o op, s int, root, i int) error {
		p, err := planFor(o, root, i)
		if err != nil {
			return err
		}
		b := inst.mirror[s]
		if coldWorkload {
			return coldCount(p, b, o.Class, root, i)
		}
		key := pair{inst.queries[o.Query], s}
		if !warmed[key] {
			warmed[key] = true
			if err := coldCount(p, b, o.Class, root, i); err != nil {
				return err
			}
			// Fill the registry session's memo, untimed.
			if err := memoCount(p, b, "engine.memo_fill", o.Class, root, i); err != nil {
				return err
			}
		}
		return memoCount(p, b, "engine.memo_count", o.Class, root, i)
	}

	// append-mix: three WAL stores (one per sync policy) log every batch
	// that the mirror structure applies.
	type walStore struct {
		policy wal.SyncPolicy
		dir    string
		st     *wal.Store
	}
	var stores []*walStore
	if len(inst.batches) > 0 {
		for _, pol := range []wal.SyncPolicy{wal.SyncNever, wal.SyncBatch, wal.SyncAlways} {
			dir, err := os.MkdirTemp(opt.outDir, "rung2-wal-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			st, _, err := wal.Open(wal.Options{Dir: dir, Sync: pol})
			if err != nil {
				return nil, err
			}
			ws := &walStore{policy: pol, dir: dir, st: st}
			stores = append(stores, ws)
			defer func() { _ = ws.st.Close() }()
			if err := st.LogCreate(inst.names[0], nil, inst.facts[0]); err != nil {
				return nil, err
			}
		}
	}

	// readAt is the structure version each subscription was last read at.
	readAt := make(map[int]uint64)
	do := func(i int, o op) error {
		root := rec.start(2, rootName(2, i), o.Class, 0, i)
		defer rec.end(root)
		switch o.Kind {
		case opCount:
			return exactOn(o, o.Struct, root, i)
		case opBatch:
			for s := range inst.mirror {
				if err := exactOn(o, s, root, i); err != nil {
					return err
				}
			}
		case opSubRead:
			// A read at an unchanged version is a memo lookup.  After an
			// append the keyed count on the structure's registry session
			// adopts the prior and advances it by the delta (or recounts
			// past the threshold gate): the maintained count rolling
			// forward.
			q := inst.subs[o.Sub]
			b := inst.mirror[0]
			if _, seen := readAt[o.Sub]; seen && readAt[o.Sub] != b.Version() {
				p, err := planFor(op{Class: o.Class, Query: q}, root, i)
				if err != nil {
					return err
				}
				readAt[o.Sub] = b.Version()
				return memoCount(p, b, "engine.delta_advance", o.Class, root, i)
			}
			readAt[o.Sub] = b.Version()
			return exactOn(op{Kind: opCount, Class: o.Class, Query: q}, 0, root, i)
		case opApprox:
			p, err := planFor(o, root, i)
			if err != nil {
				return err
			}
			b := inst.mirror[o.Struct]
			truth, _ := new(big.Float).SetInt(inst.oracle.want[o.Query][o.Struct]).Float64()
			for k := range p.terms {
				t := &p.terms[k]
				if t.est == nil {
					t.est = approx.New(t.f)
				}
				var res approx.Result
				rec.timed(2, "approx.count", o.Class, root, i, func() {
					res, err = t.est.Count(ctx, b, approx.Params{Epsilon: approxEpsilon, Delta: approxDelta, Seed: o.Seed})
				})
				if err != nil {
					return err
				}
				est, _ := new(big.Float).SetInt(res.Estimate).Float64()
				rel := math.Abs(est-truth) / truth
				r.approxN++
				if res.Converged {
					r.approxConv++
				}
				if rel > approxEpsilon {
					r.approxMiss++
				}
				r.approxSamples = append(r.approxSamples, float64(res.Samples))
				r.approxRelErr = append(r.approxRelErr, rel)
			}
		case opAppend:
			b := inst.mirror[0]
			var err error
			rec.timed(2, "parser.facts", o.Class, root, i, func() { _, err = parser.ParseStructure(o.Facts, sig) })
			if err != nil {
				return err
			}
			r.factTuples += appendBatchEdges
			for _, ws := range stores {
				// The server logs under one policy (batch); the other two
				// are timed beside the op, not as part of it.
				parent := 0
				if ws.policy == wal.SyncBatch {
					parent = root
				}
				rec.timed(2, "wal.append."+ws.policy.String(), o.Class, parent, i, func() {
					err = ws.st.LogAppend(inst.names[0], batchID(o.Batch), b.Version(), o.Facts)
				})
				if err != nil {
					return err
				}
			}
			r.factBytes += float64(len(o.Facts))
			snap := b.Snapshot()
			for _, e := range inst.batches[o.Batch] {
				rec.timed(2, "structure.add_fact", o.Class, root, i, func() {
					err = b.AddFact("E", "e"+strconv.Itoa(e[0]), "e"+strconv.Itoa(e[1]))
				})
				if err != nil {
					return err
				}
			}
			rec.timed(2, "structure.delta_since", o.Class, root, i, func() { _, _ = b.DeltaSince(snap) })
		}
		return nil
	}

	for _, o := range inst.warmOps {
		if err := do(-1, o); err != nil {
			return nil, err
		}
	}
	if err := replay(inst, budget, do); err != nil {
		return nil, err
	}

	// WAL counters, then recovery and compaction on the batch-policy
	// store: close, reopen (replays the log), compact.
	for _, ws := range stores {
		if ws.policy != wal.SyncBatch {
			continue
		}
		st := ws.st.Stats()
		r.walSyncs, r.walAppends, r.walBytes = float64(st.Syncs), float64(st.Appends), float64(st.WALBytes)
		if err := ws.st.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		reopened, _, err := wal.Open(wal.Options{Dir: ws.dir, Sync: wal.SyncBatch})
		if err != nil {
			return nil, err
		}
		r.recoverMS = float64(time.Since(t0)) / 1e6
		ws.st = reopened
		t0 = time.Now()
		if err := reopened.Compact(map[string]*structure.Structure{inst.names[0]: inst.mirror[0]}); err != nil {
			return nil, err
		}
		r.compactMS = float64(time.Since(t0)) / 1e6
	}
	return r, nil
}

// ---- derivation ----

// derive turns the ladder's spans and counters into the per-layer
// metrics.
func derive(spans []span, r0 *httpRung, r2 *stageRung) map[string]float64 {
	m := make(map[string]float64)
	self := selfTimes(spans)

	// Durations by span name, and per-op totals by class for the rungs'
	// root spans.
	byName := series{}
	rootUS := [3]series{{}, {}, {}} // rung → class → root span µs
	shardUS := series{}             // class → per-op time inside shard handlers (rung 0)
	clientSelf, routerSelf := series{}, series{}
	// Per op of rung 0: time inside shard handlers.  Behind a router
	// that is the part of the router span its shard calls cover (they
	// run in parallel on a scatter-gather); otherwise the handler span.
	// outerHandlerUS sums the outermost handler spans.
	shardPerOp := make(map[int]float64)
	opClass := make(map[int]string)
	routed := false
	for _, s := range spans {
		routed = routed || s.Name == "cluster.handler"
	}
	var outerHandlerUS float64
	for _, s := range spans {
		selfUS := float64(self[s.ID]) / 1e3
		switch s.Name {
		case "http.client":
			rootUS[0].add(s.Class, s.us())
			clientSelf.add(s.Class, selfUS)
			opClass[s.Op] = s.Class
		case "L1.op", "L2.op":
			// The op's layer time is what its direct children cover,
			// not the loop around them.
			rootUS[s.Rung].add(s.Class, s.us()-selfUS)
		case "L1.warmup", "L2.warmup":
			// Warm-up totals stay out of the per-class medians.
		case "cluster.handler":
			routerSelf.add(s.Class, selfUS)
			shardPerOp[s.Op] = s.us() - selfUS
			outerHandlerUS += s.us()
		case "serve.handler":
			byName.add("serve.handler."+s.Class, s.us())
			if !routed {
				shardPerOp[s.Op] = s.us()
				outerHandlerUS += s.us()
			}
		default:
			byName.add(s.Name, s.us())
		}
	}
	for op, us := range shardPerOp {
		shardUS.add(opClass[op], us)
	}

	m["parser.query_us"] = byName.med("parser.query")
	m["eptrans.compile_us"] = byName.med("eptrans.compile")
	m["term.fingerprint_us"] = byName.med("term.fingerprint")
	m["classify.analyze_us"] = byName.med("classify.analyze")
	m["engine.plan_compile_us"] = byName.med("engine.plan_compile")
	m["engine.cold_count_us.join"] = byName.med("engine.cold_count.join")
	m["engine.cold_count_us.exists"] = byName.med("engine.cold_count.exists")
	m["engine.memo_count_us"] = byName.med("engine.memo_count")
	m["engine.delta_advance_us"] = byName.med("engine.delta_advance")
	m["approx.count_us"] = byName.med("approx.count")
	m["structure.add_fact_ns"] = 1e3 * byName.med("structure.add_fact")
	m["structure.delta_since_us"] = byName.med("structure.delta_since")
	m["core.new_counter_us"] = byName.med("core.new_counter")
	m["core.count_cold_us"] = byName.med("core.count_cold")
	m["core.count_warm_us"] = byName.med("core.count_warm")
	m["serve.count_handler_us"] = byName.med("serve.handler.count")
	m["serve.batch_handler_us"] = byName.med("serve.handler.batch")
	m["serve.append_handler_us"] = byName.med("serve.handler.append")
	m["serve.subread_handler_us"] = byName.med("serve.handler.subread")
	m["wal.append_us.never"] = byName.med("wal.append.never")
	m["wal.append_us.batch"] = byName.med("wal.append.batch")
	m["wal.append_us.always"] = byName.med("wal.append.always")
	m["cluster.hop_us"] = routerSelf.med("count")
	m["cluster.scatter_us"] = routerSelf.med("batch")

	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	m["parser.facts_us_per_ktuple"] = share(1e3*sum(byName["parser.facts"]), r2.factTuples)
	m["eptrans.raw_terms"] = mean(r2.rawTerms)
	m["eptrans.minus_terms"] = mean(r2.minusTerms)
	m["term.dedup_ratio"] = share(sum(r2.liveClasses), sum(r2.rawTerms))
	m["approx.samples"] = median(r2.approxSamples)
	m["approx.converged_share"] = share(float64(r2.approxConv), float64(r2.approxN))
	m["approx.miss_share"] = share(float64(r2.approxMiss), float64(r2.approxN))
	m["approx.rel_err_p90"] = percentile(sortedCopy(r2.approxRelErr), 90)
	m["wal.syncs_per_append"] = share(r2.walSyncs, r2.walAppends)
	m["wal.bytes_per_fact_byte"] = share(r2.walBytes, r2.factBytes)
	m["wal.recover_ms"] = r2.recoverMS
	m["wal.compact_ms"] = r2.compactMS

	m["classify.memo_hit_share"] = share(float64(r0.classifyHits), float64(r0.classifyHits+r0.classifyAnalyses))
	var plansTotal, plansShared float64
	for _, q := range r0.stats.Queries {
		plansTotal += float64(q.Plans)
		plansShared += float64(q.SharedPlans)
	}
	m["engine.plan_shared_share"] = share(plansShared, plansTotal)
	m["engine.delta_advance_share"] = share(float64(r0.advances), float64(r0.advances+r0.fullRecounts))
	m["engine.session_evictions"] = float64(r0.evictions)
	m["engine.arena_chunks_live"] = float64(r0.arenaLive)
	m["serve.rejected"] = float64(r0.stats.Admission.Rejected)
	m["serve.deadline"] = float64(r0.stats.Admission.Deadline)
	if c := r0.stats.Cluster; c != nil {
		m["cluster.failovers"] = float64(c.Failovers)
		m["cluster.rerouted"] = float64(c.Rerouted)
	}

	// Cross-rung self times, per class, weighted by how often rung 0
	// issued the class.  A negative difference (the lower rung measured
	// slower) contributes 0.
	var nTraced float64
	for _, xs := range rootUS[0] {
		nTraced += float64(len(xs))
	}
	var serveSelf, coreSelf, httpSelf, covered, wall, overhead float64
	for class, xs := range rootUS[0] {
		w := float64(len(xs)) / nTraced
		client := median(xs)
		outerSelf := clientSelf.med(class)
		shard := shardUS.med(class)
		l1 := rootUS[1].med(class)
		l2 := rootUS[2].med(class)
		sSelf := math.Max(0, shard-l1)
		cSelf := math.Max(0, l1-l2)
		httpSelf += w * outerSelf
		serveSelf += w * sSelf
		coreSelf += w * cSelf
		covered += w * (outerSelf + routerSelf.med(routeOf(class)) + sSelf + cSelf + l2)
		wall += w * client
		if u := r0.untraced.med(class); u > 0 {
			overhead += w * (r0.traced.med(class) - u) / u
		}
	}
	m["serve.http_self_us"] = httpSelf
	m["serve.self_us"] = serveSelf
	m["core.self_us"] = coreSelf
	m["trace.coverage_share"] = share(covered, wall)
	m["trace.overhead_share"] = overhead

	// CPU the process spent outside handlers: the load generator and
	// both ends of the HTTP stack.  Handler wall time stands in for
	// handler CPU (one request is in flight), and only the traced half
	// of the ops has handler spans, hence the scaling.
	if nTraced > 0 && r0.cpu > 0 {
		handlerCPU := outerHandlerUS * float64(r0.attempted) / nTraced
		m["loadgen.cpu_share"] = math.Min(1, math.Max(0, 1-handlerCPU/(float64(r0.cpu)/1e3)))
	}
	return m
}

// routeOf maps an op class to the route its requests take.
func routeOf(class string) string {
	switch class {
	case "batch", "append", "subread":
		return class
	}
	return "count"
}
