package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/count"
)

func TestParseEngine(t *testing.T) {
	cases := map[string]count.PPEngine{
		"fpt":        count.EngineFPT,
		"auto":       count.EngineAuto,
		"fpt-nocore": count.EngineFPTNoCore,
		"projection": count.EngineProjection,
		"proj":       count.EngineProjection,
		"brute":      count.EngineBrute,
	}
	for name, want := range cases {
		got, err := parseEngine(name)
		if err != nil || got != want {
			t.Errorf("parseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseEngine("quantum"); err == nil {
		t.Error("unknown engine should fail")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "g.facts")
	if err := os.WriteFile(data, []byte("E(a,b). E(b,c). E(c,a).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("p(s,t) := exists u. E(s,u) & E(u,t)", "", data, "fpt", false, true, true, false, 3, approxOpts{}); err != nil {
		t.Fatal(err)
	}
	// Query file variant.
	qf := filepath.Join(dir, "q.epq")
	if err := os.WriteFile(qf, []byte("p(x,y) := E(x,y)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", qf, data, "projection", true, false, false, true, -1, approxOpts{}); err != nil {
		t.Fatal(err)
	}
	// Approx mode: routed counting with explicit (ε, δ) and seed.
	ao := approxOpts{mode: "approx", eps: 0.1, delta: 0.05, seed: 7}
	if err := run("tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)", "", data, "fpt", false, false, false, false, 0, ao); err != nil {
		t.Fatal(err)
	}
	// -verify cross-checks exact engines; it has no meaning under approx.
	ao2 := approxOpts{mode: "approx"}
	if err := run("p(x,y) := E(x,y)", "", data, "fpt", false, false, true, false, 0, ao2); err == nil {
		t.Fatal("-verify with -mode approx should fail")
	}
	// Unknown mode is rejected.
	if err := run("p(x,y) := E(x,y)", "", data, "fpt", false, false, false, false, 0, approxOpts{mode: "bogus"}); err == nil {
		t.Fatal("unknown mode should fail")
	}
}

func TestRunArgumentValidation(t *testing.T) {
	if err := run("", "", "x.facts", "fpt", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("missing query should fail")
	}
	if err := run("q(x) := E(x,x)", "qf", "x.facts", "fpt", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("both query and queryfile should fail")
	}
	if err := run("q(x) := E(x,x)", "", "", "fpt", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("missing data should fail")
	}
	if err := run("q(x) := E(x,x)", "", "/nonexistent.facts", "fpt", false, false, false, false, 0, approxOpts{}); err == nil {
		t.Fatal("missing data file should fail")
	}
}
