// Command epshell is an interactive workbench for the library: load a
// structure, run counting queries against it, inspect answers, compiled
// pipelines and trichotomy classifications.
//
// Usage:
//
//	epshell [-data file.facts]
//
// Commands (also shown by `help`):
//
//	load <file>              load a fact file as the current structure
//	fact E(a,b)              add a single fact
//	show                     print the current structure
//	count <query>            count answers, e.g. count p(x,y) := E(x,y)
//	answers [N] <query>      list up to N answers (default 20)
//	explain <query>          show the compiled pipeline (φ*, φ⁺, widths)
//	classify <query>         trichotomy verdict vs bounds (1,1)
//	equiv <q1> ;; <q2>       counting equivalence of two pp-queries
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	epcq "repro"
	"repro/internal/core"
	"repro/internal/engine"
)

func main() {
	dataFile := flag.String("data", "", "fact file to load at startup")
	flag.Parse()
	sh := &shell{out: os.Stdout}
	if *dataFile != "" {
		if err := sh.load(*dataFile); err != nil {
			fmt.Fprintln(os.Stderr, "epshell:", err)
			os.Exit(1)
		}
	}
	sh.repl(os.Stdin)
}

type shell struct {
	out io.Writer
	db  *epcq.Structure
}

func (sh *shell) repl(in io.Reader) {
	sc := bufio.NewScanner(in)
	fmt.Fprint(sh.out, "epcq shell — 'help' for commands\n> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if line != "" {
			if err := sh.dispatch(line); err != nil {
				fmt.Fprintln(sh.out, "error:", err)
			}
		}
		fmt.Fprint(sh.out, "> ")
	}
}

func (sh *shell) dispatch(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Fprintln(sh.out, `commands:
  load <file>           load a fact file
  fact E(a,b)           add one fact
  show                  print the current structure
  count <query>         count answers
  answers [N] <query>   list up to N answers (default 20)
  explain <query>       compiled pipeline (φ*, φ⁺, widths)
  classify <query>      trichotomy verdict vs bounds (1,1)
  equiv <q1> ;; <q2>    counting equivalence of two pp-queries
  quit`)
		return nil
	case "load":
		return sh.load(rest)
	case "fact":
		return sh.fact(rest)
	case "show":
		if sh.db == nil {
			return fmt.Errorf("no structure loaded")
		}
		fmt.Fprintln(sh.out, sh.db)
		return nil
	case "count":
		return sh.count(rest)
	case "answers":
		return sh.answers(rest)
	case "explain":
		return sh.explain(rest)
	case "classify":
		return sh.classify(rest)
	case "equiv":
		return sh.equiv(rest)
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

func (sh *shell) load(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	db, err := epcq.ParseStructure(string(raw), nil)
	if err != nil {
		return err
	}
	sh.db = db
	fmt.Fprintf(sh.out, "loaded %d elements, %d facts over %s\n", db.Size(), db.NumTuples(), db.Signature())
	return nil
}

func (sh *shell) fact(src string) error {
	if sh.db == nil {
		db, err := epcq.ParseStructure(src, nil)
		if err != nil {
			return err
		}
		sh.db = db
		return nil
	}
	// Parse the fact against a widened signature, then merge.
	add, err := epcq.ParseStructure(src, nil)
	if err != nil {
		return err
	}
	if !add.Signature().Equal(sh.db.Signature()) {
		// Rebuild over the union signature.
		cur, err := sh.db.FactsString()
		if err != nil {
			return err
		}
		merged, err := epcq.ParseStructure(cur+"\n"+src, nil)
		if err != nil {
			return err
		}
		sh.db = merged
		return nil
	}
	for _, r := range add.Signature().Rels() {
		var addErr error
		names := make([]string, r.Arity)
		add.ForEachTuple(r.Name, func(t []int) bool {
			for i, v := range t {
				names[i] = add.ElemName(v)
			}
			addErr = sh.db.AddFact(r.Name, names...)
			return addErr == nil
		})
		if addErr != nil {
			return addErr
		}
	}
	return nil
}

// counterFor parses the query against a signature compatible with the
// loaded structure.
func (sh *shell) counterFor(src string) (*core.Counter, error) {
	if sh.db == nil {
		return nil, fmt.Errorf("no structure loaded (use 'load' or 'fact')")
	}
	q, err := epcq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return core.NewCounter(q, sh.db.Signature(), engine.FPT)
}

func (sh *shell) count(src string) error {
	c, err := sh.counterFor(src)
	if err != nil {
		return err
	}
	n, err := c.Count(sh.db)
	if err != nil {
		return err
	}
	fmt.Fprintln(sh.out, n)
	return nil
}

func (sh *shell) answers(rest string) error {
	limit := 20
	if first, more, ok := strings.Cut(rest, " "); ok {
		if n, err := strconv.Atoi(first); err == nil {
			limit = n
			rest = strings.TrimSpace(more)
		}
	}
	c, err := sh.counterFor(rest)
	if err != nil {
		return err
	}
	shown, err := c.Answers(sh.db, limit, func(a core.Answer) bool {
		fmt.Fprintf(sh.out, "  (%s)\n", strings.Join(a, ", "))
		return true
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "%d answer(s) shown (limit %d)\n", shown, limit)
	return nil
}

func (sh *shell) explain(src string) error {
	c, err := sh.counterFor(src)
	if err != nil {
		return err
	}
	fmt.Fprint(sh.out, c.Explain())
	return nil
}

func (sh *shell) classify(src string) error {
	c, err := sh.counterFor(src)
	if err != nil {
		return err
	}
	v, err := c.Classify(1, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(sh.out, v)
	return nil
}

func (sh *shell) equiv(rest string) error {
	lhs, rhs, ok := strings.Cut(rest, ";;")
	if !ok {
		return fmt.Errorf("usage: equiv <q1> ;; <q2>")
	}
	q1, err := epcq.ParseQuery(strings.TrimSpace(lhs))
	if err != nil {
		return fmt.Errorf("left query: %v", err)
	}
	q2, err := epcq.ParseQuery(strings.TrimSpace(rhs))
	if err != nil {
		return fmt.Errorf("right query: %v", err)
	}
	eq, err := epcq.CountingEquivalent(q1, q2, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "counting equivalent: %v\n", eq)
	return nil
}
