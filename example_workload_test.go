package epcq_test

import (
	"context"
	"fmt"
	"math/big"
	"net/http/httptest"

	epcq "repro"
	"repro/internal/count"
	"repro/internal/serve"
	"repro/internal/workload"
)

// unionChecked returns n after checking it against q's count on b by
// set-union enumeration of the disjuncts' answers (count.EPUnion), a path
// that shares no inclusion–exclusion, term pool or engine with the
// counter's; it panics on a mismatch.
func unionChecked(q epcq.Query, b *epcq.Structure, n *big.Int) *big.Int {
	c, err := epcq.Compile(q, b.Signature())
	if err != nil {
		panic(err)
	}
	u, err := count.EPUnion(c.Disjuncts, b)
	if err != nil {
		panic(err)
	}
	if u.Cmp(n) != 0 {
		panic(fmt.Sprintf("%v: counted %v, union enumeration %v", q, n, u))
	}
	return n
}

// The Theorem 3.2 trichotomy read off query families: how core treewidth
// and contract-graph treewidth grow with k (Chen–Mengel's CQ trichotomy,
// lifted to ep-queries through φ⁺).
func ExampleAnalyzeQueryFamily() {
	families := []struct {
		name string
		gen  func(int) epcq.Query
	}{
		{"path with free endpoints", workload.PathQuery},
		{"Boolean clique sentence", workload.CliqueSentence},
		{"free clique", workload.CliqueQuery},
		{"star with quantified center", workload.StarQuery},
	}
	for _, fam := range families {
		fv, err := epcq.AnalyzeQueryFamily(fam.gen, workload.EdgeSig(), []int{2, 3, 4, 5, 6})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s:\n", fam.name)
		fmt.Printf("  %-4s %-9s %s\n", "k", "core tw", "contract tw")
		for _, pt := range fv.Points {
			fmt.Printf("  %-4d %-9d %d\n", pt.K, pt.CoreTW, pt.ContractTW)
		}
		fmt.Printf("  trends: core %v, contract %v → %v\n", fv.CoreTrend, fv.ContractTrend, fv.ImpliedCase)
	}
	fmt.Println("reading the table (Theorem 3.2):")
	fmt.Println("  both widths bounded         → case 1: counting is FPT")
	fmt.Println("  only contract width bounded → case 2: ≡ p-Clique")
	fmt.Println("  contract width unbounded    → case 3: p-#Clique-hard")
	// Output:
	// path with free endpoints:
	//   k    core tw   contract tw
	//   2    1         1
	//   3    1         1
	//   4    1         1
	//   5    1         1
	//   6    1         1
	//   trends: core bounded, contract bounded → case 1: FPT (tractability condition)
	// Boolean clique sentence:
	//   k    core tw   contract tw
	//   2    1         0
	//   3    2         0
	//   4    3         0
	//   5    4         0
	//   6    5         0
	//   trends: core growing, contract bounded → case 2: p-Clique-interreducible (contraction condition only)
	// free clique:
	//   k    core tw   contract tw
	//   2    1         1
	//   3    2         2
	//   4    3         3
	//   5    4         4
	//   6    5         5
	//   trends: core growing, contract growing → case 3: p-#Clique-hard
	// star with quantified center:
	//   k    core tw   contract tw
	//   2    1         1
	//   3    1         2
	//   4    1         3
	//   5    1         4
	//   6    1         5
	//   trends: core bounded, contract growing → case 3: p-#Clique-hard
	// reading the table (Theorem 3.2):
	//   both widths bounded         → case 1: counting is FPT
	//   only contract width bounded → case 2: ≡ p-Clique
	//   contract width unbounded    → case 3: p-#Clique-hard
}

// Motif counting on both sides of the trichotomy: 3-step reach pairs (a
// path with a quantified interior, case 1) and k-cliques through the free
// k-clique query (case 3: its contract graph is K_k), on G(40, 1/4) with
// a planted 6-clique.  A k-clique count is the answer count over k!.
func ExampleCount_motifs() {
	g := workload.GraphStructure(workload.PlantedClique(40, 0.25, 6, 42))
	fmt.Printf("graph: %d vertices, %d directed edge tuples\n", g.Size(), g.NumTuples())

	path := epcq.MustParseQuery("p(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)")
	n, err := epcq.Count(path, g)
	if err != nil {
		panic(err)
	}
	v, err := epcq.Classify(path, nil, 1, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("3-step reach pairs: %v [%v]\n", unionChecked(path, g, n), v.Case)

	fmt.Printf("%-3s %-11s %s\n", "k", "#k-cliques", "trichotomy case")
	kFact := big.NewInt(1)
	for k := 2; k <= 5; k++ {
		kFact.Mul(kFact, big.NewInt(int64(k)))
		q := workload.CliqueQuery(k)
		c, err := epcq.NewCounter(q, g.Signature())
		if err != nil {
			panic(err)
		}
		answers, err := c.Count(g)
		if err != nil {
			panic(err)
		}
		v, err := c.Classify(1, 1)
		if err != nil {
			panic(err)
		}
		cliques := new(big.Int).Quo(unionChecked(q, g, answers), kFact)
		fmt.Printf("%-3d %-11v %v\n", k, cliques, v.Case)
	}
	// Output:
	// graph: 40 vertices, 458 directed edge tuples
	// 3-step reach pairs: 1600 [case 1: FPT (tractability condition)]
	// k   #k-cliques  trichotomy case
	// 2   229         case 1: FPT (tractability condition)
	// 3   242         case 3: p-#Clique-hard
	// 4   65          case 3: p-#Clique-hard
	// 5   9           case 3: p-#Clique-hard
}

// Counting questions over a synthetic social network (persons follow
// persons, like items, join groups), the decision-support workload of
// the paper's introduction.  Counts are over the liberal variables, so
// "pairs" are ordered and include a = b; the case is each query's
// Theorem 3.2 verdict at width bounds (1,1).
func ExampleNewCounter_socialNetwork() {
	db := workload.SocialNetwork(400, 60, 8, 7)
	fmt.Printf("network: %d nodes, %d facts\n", db.Size(), db.NumTuples())
	for _, spec := range []struct{ what, src string }{
		{"follower pairs (a follows b)",
			"f(a,b) := Follows(a,b)"},
		{"pairs with a common liked item",
			"common(a,b) := exists i. Likes(a,i) & Likes(b,i)"},
		{"2-step influence pairs",
			"infl(a,b) := exists m. Follows(a,m) & Follows(m,b)"},
		{"mutual-follow pairs inside one group",
			"mg(a,b) := exists g. Follows(a,b) & Follows(b,a) & Member(a,g) & Member(b,g)"},
		{"co-like OR co-membership (a UCQ)",
			"rel(a,b) := (exists i. Likes(a,i) & Likes(b,i)) | (exists g. Member(a,g) & Member(b,g))"},
		{"a follows b, b and c like one item",
			"t(a,b,c) := exists i. Follows(a,b) & Likes(b,i) & Likes(c,i)"},
	} {
		q := epcq.MustParseQuery(spec.src)
		c, err := epcq.NewCounter(q, db.Signature())
		if err != nil {
			panic(err)
		}
		n, err := c.Count(db)
		if err != nil {
			panic(err)
		}
		v, err := c.Classify(1, 1)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-36s %6v  [%v]\n", spec.what, unionChecked(q, db, n), v.Case)
	}
	// Output:
	// network: 468 nodes, 2255 facts
	// follower pairs (a follows b)           1054  [case 1: FPT (tractability condition)]
	// pairs with a common liked item        13234  [case 1: FPT (tractability condition)]
	// 2-step influence pairs                 3318  [case 1: FPT (tractability condition)]
	// mutual-follow pairs inside one group     36  [case 2: p-Clique-interreducible (contraction condition only)]
	// co-like OR co-membership (a UCQ)      24408  [case 2: p-Clique-interreducible (contraction condition only)]
	// a follows b, b and c like one item    35387  [case 1: FPT (tractability condition)]
}

// The counting service end to end on a loopback server: ingest a social
// network, count motif queries, stream appends (every count reports the
// structure version it ran against), count one motif over three
// structures in one batch, and read the /stats telemetry.  Timings are
// left out; they differ from run to run.
func Example_service() {
	srv := serve.New(serve.Config{MaxInFlight: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	cl := serve.NewClient(ts.URL, ts.Client())
	create := func(name string, b *epcq.Structure) serve.StructureInfo {
		facts, err := b.FactsString()
		if err != nil {
			panic(err)
		}
		info, err := cl.CreateStructure(ctx, name, facts, nil)
		if err != nil {
			panic(err)
		}
		return info
	}

	info := create("social", workload.SocialNetwork(160, 40, 8, 7))
	fmt.Printf("ingested %q: %d elements, %d tuples (version %d)\n", info.Name, info.Size, info.Tuples, info.Version)
	const mutual = "mutual(x,y) := Follows(x,y) & Follows(y,x)"
	for _, m := range []struct{ name, query string }{
		{"mutual follows", mutual},
		{"follow triangles", "tri(x,y,z) := Follows(x,y) & Follows(y,z) & Follows(z,x)"},
		{"co-liked items", "co(x,y,i) := Likes(x,i) & Likes(y,i)"},
		{"groupmates who follow", "gm(x,y) := exists g. Member(x,g) & Member(y,g) & Follows(x,y)"},
		{"influencer reach-2", "r2(x,z) := exists y. Follows(y,x) & Follows(z,y)"},
	} {
		n, _, err := cl.Count(ctx, m.query, "social")
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-22s %5v\n", m.name, n)
	}

	fmt.Println("streaming follow edges:")
	for i := 0; i < 5; i++ {
		info, err := cl.AppendFacts(ctx, "social", fmt.Sprintf("Follows(p%d,p%d). Follows(p%d,p%d).", i, 40+i, 40+i, i))
		if err != nil {
			panic(err)
		}
		n, resp, err := cl.Count(ctx, mutual, "social")
		if err != nil {
			panic(err)
		}
		fmt.Printf("  version %d: %d tuples, mutual follows = %v (version counted: %d)\n", info.Version, info.Tuples, n, resp.Version)
	}

	create("region0", workload.SocialNetwork(80, 20, 4, 11))
	create("region1", workload.SocialNetwork(80, 20, 4, 12))
	ns, _, err := cl.CountBatch(ctx, mutual, []string{"social", "region0", "region1"})
	if err != nil {
		panic(err)
	}
	fmt.Println("mutual follows per structure:", ns)

	// Shared-plan and session counts are left out: the plan cache and
	// the session registry are process-wide.
	st, err := cl.Stats(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("stats: %d queries cached, %d/%d counting slots in use, %d admitted\n",
		len(st.Queries), st.Admission.InFlight, st.Admission.MaxInFlight, st.Admission.Admitted)
	for _, q := range st.Queries {
		fmt.Printf("  %s: plans=%d memo=%d/%d\n", q.Query, q.Plans, q.CountCacheHits, q.CountCacheMisses)
	}
	// Output:
	// ingested "social": 208 elements, 895 tuples (version 1103)
	//   mutual follows           202
	//   follow triangles          12
	//   co-liked items          3349
	//   groupmates who follow     30
	//   influencer reach-2      1257
	// streaming follow edges:
	//   version 1105: 897 tuples, mutual follows = 204 (version counted: 1105)
	//   version 1107: 899 tuples, mutual follows = 206 (version counted: 1107)
	//   version 1109: 901 tuples, mutual follows = 208 (version counted: 1109)
	//   version 1111: 903 tuples, mutual follows = 210 (version counted: 1111)
	//   version 1113: 905 tuples, mutual follows = 212 (version counted: 1113)
	// mutual follows per structure: [212 100 90]
	// stats: 5 queries cached, 0/16 counting slots in use, 11 admitted
	//   co(x,y,i) := Likes(x,i) & Likes(y,i): plans=1 memo=0/1
	//   gm(x,y) := exists g. Member(x,g) & Member(y,g) & Follows(x,y): plans=1 memo=0/1
	//   mutual(x,y) := Follows(x,y) & Follows(y,x): plans=1 memo=1/8
	//   r2(x,z) := exists y. Follows(y,x) & Follows(z,y): plans=1 memo=0/1
	//   tri(x,y,z) := Follows(x,y) & Follows(y,z) & Follows(z,x): plans=1 memo=0/1
}
