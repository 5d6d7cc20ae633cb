package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "g.facts")
	if err := os.WriteFile(data, []byte("E(a,b). E(b,c). E(c,a).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("p(s,t) := exists u. E(s,u) & E(u,t)", "", data, false, true, true, false, 3, approxOpts{}); err != nil {
		t.Fatal(err)
	}
	// -verify on overlapping unions: with the 2-cycle a ⇄ b the disjuncts
	// of E(x,y) | E(y,x) share the answers (a,b) and (b,a), so the signed
	// sum must subtract them to meet the union enumeration (6 answers);
	// the same with a sentence disjunct that fails (no loop) and one that
	// holds (|B|^2 = 9).
	sym := filepath.Join(dir, "sym.facts")
	if err := os.WriteFile(sym, []byte("E(a,b). E(b,a). E(b,c). E(c,a).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"p(x,y) := E(x,y) | E(y,x)",
		"p(x,y) := E(x,y) | E(y,x) | exists u. E(u,u)",
		"p(x,y) := E(x,y) | exists u, v. E(u,v)",
	} {
		if err := run(q, "", sym, false, false, true, false, 0, approxOpts{}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// Query file variant.
	qf := filepath.Join(dir, "q.epq")
	if err := os.WriteFile(qf, []byte("p(x,y) := E(x,y)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", qf, data, true, false, false, true, -1, approxOpts{}); err != nil {
		t.Fatal(err)
	}
	// Approx mode: routed counting with explicit (ε, δ) and seed.
	ao := approxOpts{mode: "approx", eps: 0.1, delta: 0.05, seed: 7}
	if err := run("tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)", "", data, false, false, false, false, 0, ao); err != nil {
		t.Fatal(err)
	}
	// -verify cross-checks exact engines; it has no meaning under approx.
	ao2 := approxOpts{mode: "approx"}
	if err := run("p(x,y) := E(x,y)", "", data, false, false, true, false, 0, ao2); err == nil {
		t.Fatal("-verify with -mode approx should fail")
	}
	// Unknown mode is rejected.
	if err := run("p(x,y) := E(x,y)", "", data, false, false, false, false, 0, approxOpts{mode: "bogus"}); err == nil {
		t.Fatal("unknown mode should fail")
	}
}

func TestRunArgumentValidation(t *testing.T) {
	if err := run("", "", "x.facts", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("missing query should fail")
	}
	if err := run("q(x) := E(x,x)", "qf", "x.facts", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("both query and queryfile should fail")
	}
	if err := run("q(x) := E(x,x)", "", "", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("missing data should fail")
	}
	if err := run("q(x) := E(x,x)", "", "/nonexistent.facts", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("missing data file should fail")
	}
}
