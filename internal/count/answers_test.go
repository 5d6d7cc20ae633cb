package count

import (
	"math/big"
	"testing"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/workload"
)

func TestEnumerateAnswersMatchesCount(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(x,y) := E(x,y) | E(y,x)",
		"q(s,t) := exists u. E(s,u) & E(u,t)",
		"q(x,y,z) := E(x,y)", // isolated liberal z
	}
	for _, src := range queries {
		q := mustParseQ(t, src)
		var ds []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, p)
		}
		for seed := int64(0); seed < 5; seed++ {
			b := workload.RandomStructure(sig, 3, 0.45, seed)
			want, err := EPDirect(q, b)
			if err != nil {
				t.Fatal(err)
			}
			var got []Answer
			n, err := EnumerateAnswers(sig, q.Lib, ds, b, 0, func(a Answer) bool {
				got = append(got, append(Answer(nil), a...))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if int64(n) != want.Int64() || int64(len(got)) != want.Int64() {
				t.Fatalf("%s seed %d: enumerated %d answers, count says %v", src, seed, n, want)
			}
			// Every answer must actually satisfy the query.
			for _, a := range got {
				env := Env{}
				for i, v := range q.Lib {
					env[v] = b.ElemIndex(a[i])
				}
				ok, err := EvalEP(b, env, q.F)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("%s: enumerated non-answer %v", src, a)
				}
			}
			// No duplicates.
			seen := map[string]bool{}
			for _, a := range got {
				k := ""
				for _, s := range a {
					k += s + "\x00"
				}
				if seen[k] {
					t.Fatalf("%s: duplicate answer %v", src, a)
				}
				seen[k] = true
			}
		}
	}
}

func TestEnumerateAnswersLimit(t *testing.T) {
	sig := workload.EdgeSig()
	q := mustParseQ(t, "q(x,y) := E(x,y)")
	p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	b := workload.GraphStructure(workload.CompleteGraph(5)) // 20 directed edges
	n, err := EnumerateAnswers(sig, q.Lib, []pp.PP{p}, b, 7, func(Answer) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("limit ignored: delivered %d", n)
	}
}

func TestEnumerateAnswersSentenceShortCircuit(t *testing.T) {
	sig := workload.EdgeSig()
	q := mustParseQ(t, "q(x,y) := E(x,x) & E(y,y) | exists u. E(u,u)")
	var ds []pp.PP
	for _, d := range q.Disjuncts() {
		p, err := pp.FromDisjunct(sig, q.Lib, d)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, p)
	}
	b := workload.RandomStructure(sig, 3, 0, 1)
	_ = b.AddTuple("E", 0, 0)
	n, err := EnumerateAnswers(sig, q.Lib, ds, b, 0, func(Answer) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("sentence short-circuit: delivered %d, want 9 = |B|²", n)
	}
}

func TestHomomorphismsMatchesEnumeration(t *testing.T) {
	sig := workload.EdgeSig()
	for seed := int64(0); seed < 10; seed++ {
		a := workload.RandomStructure(sig, 3, 0.4, seed)
		b := workload.RandomStructure(sig, 4, 0.4, seed+50)
		want := hom.Count(a, b, hom.Options{})
		got, err := Homomorphisms(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: DP homs %v != enumerated %v", seed, got, want)
		}
	}
}

func TestHomomorphismsPathIntoClique(t *testing.T) {
	// Walks of length 2 in K4 (symmetric): 4·3·3 = 36 homomorphisms of
	// the path a-b-c.
	path := workload.GraphStructure(workload.PathGraph(3))
	k4 := workload.GraphStructure(workload.CompleteGraph(4))
	got, err := Homomorphisms(path, k4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(36)) != 0 {
		t.Fatalf("homs = %v, want 36", got)
	}
}
