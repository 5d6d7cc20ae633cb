package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/eptrans"
	"repro/internal/pp"
	"repro/internal/workload"
)

// tableKeyGolden is the SHA-256 of TestTableKeyGolden's transcript: a
// table key that changes would change which constraints share a table,
// and a scope, template, bag placement or node map that changes would
// change the plan the executor runs.
const tableKeyGolden = "864f3cab27026d8e85a309a79c08c2d0701117576d692c866879a7704a5c63ee"

// TestTableKeyGolden pins every table key engine.Compile gives the terms
// of 500 random ep-queries of the cold-query stream's shape (φ⁻af's
// terms, then the sentences, as core.NewCounter compiles them), nested
// predicate components included, with the plan layout around them.
func TestTableKeyGolden(t *testing.T) {
	h := sha256.New()
	for i := 0; i < 500; i++ {
		q := workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, 20160626+int64(i))
		cp, err := eptrans.Compile(q, workload.EdgeSig())
		if err != nil {
			t.Fatal(err)
		}
		terms := make([]pp.PP, 0, len(cp.Minus)+len(cp.Sentences))
		for _, tm := range cp.Minus {
			terms = append(terms, tm.Formula)
		}
		for _, p := range append(terms, cp.Sentences...) {
			pl, err := Compile(p, FPT)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(h, "query", i)
			for _, pc := range pl.(*fptPlan).comps {
				writeComponent(h, pc)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != tableKeyGolden {
		t.Fatalf("table key transcript hash %s, want %s", got, tableKeyGolden)
	}
}

// writeComponent writes pc's layout and keys, then its predicates'.
func writeComponent(w io.Writer, pc *planComponent) {
	fmt.Fprintln(w, "component", pc.nActive, pc.freeVars, pc.root, pc.consAt, pc.children)
	if pc.dec != nil {
		fmt.Fprintln(w, pc.dec.Bags, pc.dec.Parent)
	}
	for _, nm := range pc.nodes {
		fmt.Fprintln(w, nm.scopeBag, nm.freePos, nm.shared)
		for _, g := range nm.groups {
			fmt.Fprintln(w, g.child, g.sharedBag, g.sharedChild)
		}
	}
	for i := range pc.constraints {
		c := &pc.constraints[i]
		fmt.Fprintf(w, "%c %q %q %v %v %v\n", c.key.kind, c.key.rel, c.key.enc, c.scope, c.atomTmpl, c.predProj)
		if c.pred != nil {
			writeComponent(w, c.pred)
		}
	}
}

// TestCompileConcurrentMatchesSerial compiles one corpus from several
// goroutines at once — plan compilers come from a shared pool — and
// requires every plan to be the one a serial compile gives, key for key.
func TestCompileConcurrentMatchesSerial(t *testing.T) {
	var terms []pp.PP
	for i := 0; i < 40; i++ {
		q := workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, 20160626+int64(i))
		cp, err := eptrans.Compile(q, workload.EdgeSig())
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range cp.Minus {
			terms = append(terms, tm.Formula)
		}
		terms = append(terms, cp.Sentences...)
	}
	transcript := func(p pp.PP) string {
		pl, err := Compile(p, FPT)
		if err != nil {
			return err.Error()
		}
		var b strings.Builder
		for _, pc := range pl.(*fptPlan).comps {
			writeComponent(&b, pc)
		}
		return b.String()
	}
	want := make([]string, len(terms))
	for i, p := range terms {
		want[i] = transcript(p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range terms {
				i := (k + w*len(terms)/4) % len(terms)
				if got := transcript(terms[i]); got != want[i] {
					t.Errorf("worker %d term %d: concurrent plan differs from the serial one", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
