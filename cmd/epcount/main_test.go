package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile writes content to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// runOut runs the command with o and returns what it printed.
func runOut(o options) (stdout, stderr string, err error) {
	var out, errOut bytes.Buffer
	err = run(&out, &errOut, o)
	return out.String(), errOut.String(), err
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "g.facts", "E(a,b). E(b,c). E(c,a).\n")
	verified := "verified: union enumeration agrees\n"
	for _, c := range []struct {
		name       string
		o          options
		wantOut    string
		wantErrOut []string // substrings of stderr
	}{
		{"two-step walks with answers, stats and verify",
			options{query: "p(s,t) := exists u. E(s,u) & E(u,t)", dataFile: data, stats: true, verify: true, answers: 3},
			"3\n  (a, c)\n  (b, a)\n  (c, b)\n",
			[]string{verified, "plans: 1 (one per unique surviving term;", "count cache: 0 hits, 1 misses\n"}},
		{"approx mode on a free triangle, exact by the sampler's bound",
			options{query: "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)", dataFile: data, mode: "approx", eps: 0.1, delta: 0.05, seed: 7},
			"3\n",
			[]string{"approx: rel-error ≤ 0 at confidence 0.95 (case sharp-clique"}},
		{"the sentence true, whose one answer is the empty tuple",
			options{query: "q() := true", dataFile: data, verify: true},
			"1\n",
			[]string{verified}},
	} {
		out, errOut, err := runOut(c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out != c.wantOut {
			t.Errorf("%s: stdout %q, want %q", c.name, out, c.wantOut)
		}
		for _, w := range c.wantErrOut {
			if !strings.Contains(errOut, w) {
				t.Errorf("%s: stderr %q lacks %q", c.name, errOut, w)
			}
		}
	}

	// -verify on overlapping unions: with the 2-cycle a ⇄ b the disjuncts
	// of E(x,y) | E(y,x) share the answers (a,b) and (b,a), so the signed
	// sum must subtract them to meet the union enumeration (6 answers);
	// the same with a sentence disjunct that fails (no loop) and one that
	// holds (|B|^2 = 9).  A fact file may hold relations the query does
	// not mention (epgen's social network has Likes and Member beside
	// Follows); a relation only the query mentions is present and empty.
	sym := writeFile(t, dir, "sym.facts", "E(a,b). E(b,a). E(b,c). E(c,a).\n")
	social := writeFile(t, dir, "s.facts", "Follows(a,b). Follows(b,a). Likes(a,i). Member(b,g).\n")
	for _, c := range []struct{ data, q, want string }{
		{sym, "p(x,y) := E(x,y) | E(y,x)", "6\n"},
		{sym, "p(x,y) := E(x,y) | E(y,x) | exists u. E(u,u)", "6\n"},
		{sym, "p(x,y) := E(x,y) | exists u, v. E(u,v)", "9\n"},
		{social, "p(x,y) := Follows(x,y)", "2\n"},
		{social, "p(x,y) := Follows(x,y) | Blocks(x,y)", "2\n"},
		{social, "p(x) := exists y. Likes(x,y)", "1\n"},
	} {
		out, errOut, err := runOut(options{query: c.q, dataFile: c.data, verify: true})
		if err != nil || out != c.want || errOut != verified {
			t.Errorf("%s: stdout %q, stderr %q, err %v; want %q and %q", c.q, out, errOut, err, c.want, verified)
		}
	}

	// Query file variant: the explanation, then the count and every
	// answer.
	qf := writeFile(t, dir, "q.epq", "p(x,y) := E(x,y)\n")
	out, errOut, err := runOut(options{queryFile: qf, dataFile: data, explain: true, timing: true, answers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "φ⁺ size: 1\n"; !strings.Contains(out, want) {
		t.Errorf("-explain output lacks %q:\n%s", want, out)
	}
	if want := "\n3\n  (a, b)\n  (b, c)\n  (c, a)\n"; !strings.HasSuffix(out, want) {
		t.Errorf("stdout ends %q, want %q", out, want)
	}
	if !strings.HasPrefix(errOut, "elapsed: ") || !strings.HasSuffix(errOut, "(|B| = 3, 3 tuples)\n") {
		t.Errorf("-time printed %q", errOut)
	}
}

// -explain with no -data prints the explanation and counts nothing.
func TestRunExplainWithoutData(t *testing.T) {
	for _, c := range []struct {
		query string
		want  []string
	}{
		{"c(x,y,z) := E(x,y) & E(y,z) & E(z,x)", []string{
			"φ⁺ size: 1\n",
			"classification vs bounds (1,1): case 3: p-#Clique-hard",
			"  φ⁺[0]: core tw 2, contract tw 2, ∃-components 0 (max interface 0)\n",
		}},
		// A disjunct without variables is the empty formula, a sentence.
		{"q() := true", []string{
			"normalized disjuncts: 1 (0 free, 1 sentence)\n",
			"  ψ1 (sentence): () | true\n",
			"φ⁺ size: 1\n",
			"classification vs bounds (1,1): case 1: FPT",
		}},
	} {
		out, errOut, err := runOut(options{query: c.query, explain: true})
		if err != nil || errOut != "" {
			t.Fatalf("%s: err %v, stderr %q", c.query, err, errOut)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", c.query, want, out)
			}
		}
		if !strings.HasSuffix(out, "approx evals: 0\n") {
			t.Errorf("%s: output goes on past the explanation:\n%s", c.query, out)
		}
	}
}

// A refused invocation fails before it reads or counts anything: it
// prints nothing on stdout.
func TestRunArgumentValidation(t *testing.T) {
	data := writeFile(t, t.TempDir(), "g.facts", "E(a,b). E(b,c). E(c,a).\n")
	for _, c := range []struct {
		name string
		o    options
	}{
		{"missing query", options{dataFile: data}},
		{"both query and queryfile", options{query: "q(x) := E(x,x)", queryFile: "qf", dataFile: data}},
		{"missing data", options{query: "q(x) := E(x,x)"}},
		{"missing data file", options{query: "q(x) := E(x,x)", dataFile: "/nonexistent.facts"}},
		{"-verify with -mode approx", options{query: "p(x,y) := E(x,y)", dataFile: data, verify: true, mode: "approx"}},
		{"unknown mode", options{query: "p(x,y) := E(x,y)", dataFile: data, mode: "bogus"}},
		{"arity clash between query and data", options{query: "p(x,y,z) := E(x,y,z)", dataFile: data}},
		{"-explain with -verify and no data", options{query: "p(x,y) := E(x,y)", explain: true, verify: true}},
		{"-explain with -answers and no data", options{query: "p(x,y) := E(x,y)", explain: true, answers: 1}},
	} {
		out, _, err := runOut(c.o)
		if err == nil {
			t.Errorf("%s: should fail", c.name)
		}
		if out != "" {
			t.Errorf("%s: printed %q on stdout", c.name, out)
		}
	}
}
