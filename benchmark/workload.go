package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/structure"
	"repro/internal/workload"
)

// The six workloads.  Names are fixed: later issues cite them verbatim.
// Every input is generated here; servers receive only the generated
// facts and query texts.

// Fixed query texts.  qUnion has four free disjuncts none of which
// entails another, so normalization keeps all four and Theorem 3.1
// expands them into 2^4 − 1 raw inclusion–exclusion terms that overlap
// heavily (the pool interns them into far fewer counting classes).
const (
	qTri    = "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"
	qC4     = "c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)"
	qFPath3 = "fp3(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)"
	qPath3  = "p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)"
	qUnion  = "u(x,y) := E(x,y) | (exists z. E(x,z) & E(z,y)) | E(y,x) | (exists w. E(y,w) & E(w,x))"
)

// inputSeed generates every structure and cold-query's query stream.
// Inputs are pinned, not drawn per run: the run seed decides the op list
// — which query and structure each op hits, the request seeds, the
// append batches and their order, where cold-query's stream starts — so
// two seeds measure the same data in a different order, and a metric's
// spread over seeds is the machine's, not the draw's.
const inputSeed = 20160626

// coldStreamStride separates the query streams of the traced rungs;
// coldStartSpread bounds how far the seed shifts a stream's start (a
// small part of the ~6000 queries a run compiles).
const (
	coldStreamStride = 10_000_000
	coldStartSpread  = 97
)

// Approximate-counting target of approx-hard (the product defaults,
// stated explicitly so the validity rule below is pinned).
const (
	approxEpsilon = 0.1
	approxDelta   = 0.05
)

// opKind is the API call an op makes.
type opKind uint8

const (
	opCount   opKind = iota // POST /count, exact
	opBatch                 // POST /countBatch over every structure
	opAppend                // POST /structures/{name}/facts with a batch id
	opSubRead               // GET /subscriptions/{id}
	opApprox                // POST /count, mode=approx
)

// op is one request of a workload's op list.  It is a pure function of
// (workload, seed, index): see instance.gen.
type op struct {
	Kind opKind `json:"kind"`
	// Class groups ops of one cost profile; per-layer medians are taken
	// per class.
	Class string `json:"class"`
	// Query indexes instance.queries, or is -1 when Text carries an
	// ad-hoc query (cold-query's pairwise-distinct texts).
	Query int    `json:"query"`
	Text  string `json:"text,omitempty"`
	// Struct indexes instance.names (unused by opBatch and opSubRead).
	Struct int `json:"struct"`
	// Batch indexes instance.batches and Facts is that batch in fact
	// syntax (opAppend).
	Batch int    `json:"batch,omitempty"`
	Facts string `json:"facts,omitempty"`
	// Sub indexes instance.subs (opSubRead).
	Sub int `json:"sub,omitempty"`
	// Seed is the per-request sampler seed (opApprox).
	Seed int64 `json:"seed,omitempty"`
}

// spec is one workload's fixed description.
type spec struct {
	name string
	why  string
	topo topology
	// control is the kind of work the measured run's host-speed control
	// does (control.go): round trips for the two workloads whose ops are
	// nothing but a round trip, computation for the four whose ops compile
	// or execute.
	control controlKind
	build   func(inst *instance, quick bool)
}

// instance is a workload bound to a seed: its structures (mirrored
// in-process for the oracle), fixed queries, and op generator.
type instance struct {
	spec *spec
	seed int64
	// stream selects cold-query's query stream (the traced rungs use
	// one each; the measured run uses stream 0).
	stream int

	names  []string
	mirror []*structure.Structure
	facts  []string

	queries []string
	// subs are the indexes (into queries) of the maintained counts
	// append-mix subscribes to.
	subs []int
	// batches are append-mix's fact batches: pairwise-disjoint sets of
	// edges absent from the initial structure, so every batch inserts
	// exactly its size whatever order two clients apply them in, and
	// the final version is known in advance.
	batches [][][2]int

	// pairs are the (query, structure) index pairs the ops can request:
	// what the oracle covers.  Builders leave it nil for "every query on
	// every structure".
	pairs [][2]int

	// warmOps run once in set-up, before timing: cache fill, first
	// subscription read, estimator compile.  The two cold-* workloads
	// have none — there the cold cost is what the user pays.
	warmOps []op

	// gen returns op i of the op list.
	gen func(i int) op
	// maxOps bounds the op list (0 = unbounded): append-mix runs out of
	// fresh edges eventually.
	maxOps int

	oracle *oracleTable
}

// splitmix64 is the op generators' hash: one cheap, well-mixed 64-bit
// value per (seed, index), so op i never depends on ops before it and
// generating it costs nanoseconds (the generator runs inside the closed
// loop and shares the CPU with the servers).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed int64, i int) uint64 {
	return splitmix64(splitmix64(uint64(seed)) + uint64(i))
}

func (inst *instance) addStructure(name string, b *structure.Structure) {
	facts, err := b.FactsString()
	if err != nil {
		// Generated element names are plain identifiers; failing here is
		// a bug in the generator.
		panic(err)
	}
	inst.names = append(inst.names, name)
	inst.mirror = append(inst.mirror, b)
	inst.facts = append(inst.facts, facts)
}

// pick sizes: the measured value, or a small one for -quick.
func pick(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

func buildReads(inst *instance, quick bool) {
	n := pick(quick, 120, 24)
	for i := 0; i < 8; i++ {
		inst.addStructure(fmt.Sprintf("s%d", i), workload.RandomStructure(workload.EdgeSig(), n, 0.12, inputSeed+int64(i)))
	}
	inst.queries = []string{qTri, qC4, qPath3, qUnion}
	classes := []string{"tri", "c4", "path3", "union"}
	for q := range inst.queries {
		for s := range inst.names {
			inst.warmOps = append(inst.warmOps, op{Kind: opCount, Class: classes[q], Query: q, Struct: s})
		}
		inst.warmOps = append(inst.warmOps, op{Kind: opBatch, Class: "batch", Query: q})
	}
	inst.gen = func(i int) op {
		h := mix(inst.seed, i)
		q := int((h >> 8) % 4)
		if h%4 == 0 {
			return op{Kind: opBatch, Class: "batch", Query: q}
		}
		return op{Kind: opCount, Class: classes[q], Query: q, Struct: int((h >> 16) % 8)}
	}
}

func buildColdQuery(inst *instance, quick bool) {
	inst.addStructure("tiny", workload.RandomStructure(workload.EdgeSig(), 10, 0.3, inputSeed))
	// One long fixed stream of pairwise-distinct queries; the seed picks
	// where in it the run starts.  Runs of different seeds so compile
	// almost the same queries — the heaviest few decide peak memory, and
	// a fresh draw per seed moved peak_rss_mb by a quarter — while each
	// traced rung (stream k) gets a disjoint stretch, so no rung finds
	// another's plans.
	base := inputSeed + int64(inst.stream)*coldStreamStride + inst.seed%coldStartSpread
	inst.gen = func(i int) op {
		q := workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, base+int64(i))
		return op{Kind: opCount, Class: "cold", Query: -1, Text: q.String()}
	}
}

func buildColdExec(inst *instance, quick bool) {
	// More structures than engine.sessionCacheCap (64): visited
	// round-robin, each is evicted from the session LRU before its next
	// visit, so every count re-materialises.
	structs := pick(quick, 96, 6)
	n := pick(quick, 120, 24)
	for i := 0; i < structs; i++ {
		inst.addStructure(fmt.Sprintf("c%d", i), workload.RandomStructure(workload.EdgeSig(), n, 8/float64(n), inputSeed+int64(i)))
	}
	inst.queries = []string{qTri, qC4, qFPath3, qPath3, qUnion}
	inst.gen = func(i int) op {
		h := mix(inst.seed, i)
		o := op{Kind: opCount, Struct: i % structs}
		switch r := h % 10; {
		case r < 7:
			o.Class, o.Query = "join", int((h>>8)%3)
		case r < 9:
			o.Class, o.Query = "exists", 3
		default:
			o.Class, o.Query = "union", 4
		}
		return o
	}
}

// appendBatchEdges is the size of one append batch.
const appendBatchEdges = 3

func buildAppendMix(inst *instance, quick bool) {
	n := pick(quick, 200, 40)
	b := workload.RandomStructure(workload.EdgeSig(), n, 0.06, inputSeed)
	inst.addStructure("g", b)
	inst.queries = []string{qTri, qC4}
	inst.subs = []int{0, 1}
	var fresh [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if !b.HasTuple("E", []int{u, v}) {
				fresh = append(fresh, [2]int{u, v})
			}
		}
	}
	rng := rand.New(rand.NewSource(inst.seed))
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	for k := 0; (k+1)*appendBatchEdges <= len(fresh); k++ {
		inst.batches = append(inst.batches, fresh[k*appendBatchEdges:(k+1)*appendBatchEdges])
	}
	inst.warmOps = []op{{Kind: opSubRead, Class: "subread", Sub: 0}, {Kind: opSubRead, Class: "subread", Sub: 1}}
	// 1 append : 2 subscription reads.
	inst.maxOps = 3 * len(inst.batches)
	inst.gen = func(i int) op {
		if i%3 == 0 {
			return op{Kind: opAppend, Class: "append", Batch: i / 3, Facts: inst.batchFacts(i / 3)}
		}
		return op{Kind: opSubRead, Class: "subread", Sub: i%3 - 1}
	}
}

// has reports whether the op list has an op i.
func (inst *instance) has(i int) bool { return inst.maxOps == 0 || i < inst.maxOps }

// queryText is the query an op sends.
func (inst *instance) queryText(o op) string {
	if o.Query < 0 {
		return o.Text
	}
	return inst.queries[o.Query]
}

// batchID is the idempotency id append batch k is sent under.
func batchID(k int) string { return "b" + strconv.Itoa(k) }

// batchFacts renders append batch k in fact syntax.
func (inst *instance) batchFacts(k int) string {
	var sb strings.Builder
	for _, e := range inst.batches[k] {
		fmt.Fprintf(&sb, "E(e%d,e%d). ", e[0], e[1])
	}
	return sb.String()
}

func buildApproxHard(inst *instance, quick bool) {
	// K4 on G(40, 0.4) and K5 on G(30, 0.6): dense enough that every
	// seed has thousands of cliques, so the sampler always converges
	// within its cap (on sparser graphs a seed with zero K5s never does).
	const k4Graphs, k5Graphs = 4, 2
	n4, n5 := pick(quick, 40, 20), pick(quick, 30, 16)
	for i := 0; i < k4Graphs; i++ {
		inst.addStructure(fmt.Sprintf("k4g%d", i), workload.GraphStructure(workload.ER(n4, 0.4, inputSeed+int64(i))))
	}
	for i := 0; i < k5Graphs; i++ {
		inst.addStructure(fmt.Sprintf("k5g%d", i), workload.GraphStructure(workload.ER(n5, 0.6, inputSeed+100+int64(i))))
	}
	inst.queries = []string{workload.CliqueQuery(4).String(), workload.CliqueQuery(5).String()}
	for s := range inst.names {
		q := s / k4Graphs // K4 on the first four graphs, K5 on the rest
		inst.pairs = append(inst.pairs, [2]int{q, s})
		inst.warmOps = append(inst.warmOps, op{Kind: opApprox, Class: []string{"k4", "k5"}[q], Query: q, Struct: s, Seed: 1})
	}
	inst.gen = func(i int) op {
		h := mix(inst.seed, i)
		o := op{Kind: opApprox, Seed: int64(h>>24) + 1}
		if h%10 < 7 {
			o.Class, o.Query, o.Struct = "k4", 0, int((h>>8)%k4Graphs)
		} else {
			o.Class, o.Query, o.Struct = "k5", 1, k4Graphs+int((h>>8)%k5Graphs)
		}
		return o
	}
}

var specs = []*spec{
	{
		name: "warm-read", topo: topoSingle, control: controlRoundTrip, build: buildReads,
		why: "memo-bound: every count is a session-memo hit, so it isolates serve + HTTP/JSON + memo lookup and fits every cache",
	},
	{
		name: "cold-query", topo: topoSingle, control: controlCompute, build: buildColdQuery,
		why: "front-end-bound: pairwise-distinct query texts on a tiny structure, a stream far larger than the query and plan caches",
	},
	{
		name: "cold-exec", topo: topoSingle, control: controlCompute, build: buildColdExec,
		why: "executor-bound: 96 structures round-robin overflow the 64-entry session LRU, so every count re-materialises",
	},
	{
		name: "append-mix", topo: topoDurable, control: controlCompute, build: buildAppendMix,
		why: "writes beside reads: durable appends and maintained-count reads on one structure, then SIGKILL and recovery",
	},
	{
		name: "approx-hard", topo: topoSingle, control: controlCompute, build: buildApproxHard,
		why: "sampler-bound: mode=approx on free K4/K5, the hard side of the trichotomy that no other workload touches",
	},
	{
		name: "routed-read", topo: topoRouted, control: controlRoundTrip, build: buildReads,
		why: "same reads as warm-read through the router over 3 shards with 2 replicas, so the difference is the cluster cost",
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// newInstance builds the workload's inputs and its op list for the seed.
func newInstance(sp *spec, seed int64, quick bool) *instance {
	return newInstanceStream(sp, seed, 0, quick)
}

func newInstanceStream(sp *spec, seed int64, stream int, quick bool) *instance {
	inst := &instance{spec: sp, seed: seed, stream: stream}
	sp.build(inst, quick)
	if inst.pairs == nil {
		for q := range inst.queries {
			for s := range inst.names {
				inst.pairs = append(inst.pairs, [2]int{q, s})
			}
		}
	}
	return inst
}

// epDirectPerQuery rations EPDirect: it confirms the FPT oracle on the
// first structures of each query (see buildOracle).
const epDirectPerQuery = 2

// prepareOracle computes the expected count of every pair the ops can
// request.  approx-hard's entries are the exact ground truth its
// estimates are judged against.
func (inst *instance) prepareOracle() error {
	t, err := buildOracle(inst.queries, inst.mirror, inst.pairs, epDirectPerQuery)
	inst.oracle = t
	return err
}
