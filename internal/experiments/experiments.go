package experiments

import (
	"encoding/json"
	"fmt"
	"math/big"
	"strings"
	"time"
)

// Table is one experiment's result: a named grid of rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// OK aggregates per-row validation (exact-match checks).
	OK bool
}

// JSON renders the table as machine-readable JSON (the BENCH_<id>.json
// files of epbench -json): the grid plus an elapsed wall-clock
// measurement supplied by the caller.
func (t *Table) JSON(elapsed time.Duration) ([]byte, error) {
	type payload struct {
		ID        string     `json:"id"`
		Title     string     `json:"title"`
		Columns   []string   `json:"columns"`
		Rows      [][]string `json:"rows"`
		Notes     []string   `json:"notes,omitempty"`
		OK        bool       `json:"ok"`
		ElapsedNs int64      `json:"elapsed_ns"`
	}
	return json.MarshalIndent(payload{
		ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows,
		Notes: t.Notes, OK: t.OK, ElapsedNs: elapsed.Nanoseconds(),
	}, "", "  ")
}

// Render prints the table in aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "validation: %s\n", map[bool]string{true: "PASS", false: "FAIL"}[t.OK])
	return b.String()
}

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks instance sizes for smoke runs.
	Quick bool
}

// Spec describes one experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// All returns the full experiment suite in order.
func All() []Spec {
	return []Spec{
		{"E1", "Example 4.1 — inclusion–exclusion counting with liberal variables", RunE1},
		{"E2", "Example 4.2/5.15 — counting-equivalence cancellation in φ*", RunE2},
		{"E3", "Example 4.3 — Vandermonde recovery of pp counts from an ep oracle", RunE3},
		{"E4", "Theorem 5.4 — counting equivalence ⇔ renaming equivalence", RunE4},
		{"E5", "Theorem 5.9 — semi-counting equivalence via φ̂", RunE5},
		{"E6", "Theorem 2.11 — FPT counting scales polynomially in |B|", RunE6},
		{"E7", "Theorem 2.12/3.2 — clique counting via case-3 queries", RunE7},
		{"E8", "Theorem 3.1 — end-to-end interreducibility count[Φ] ≡ count[Φ⁺]", RunE8},
		{"E9", "Theorem 3.2 — trichotomy classification of query families", RunE9},
		{"E10", "FPT vs XP — time as the parameter (query size) grows", RunE10},
		{"A2", "Ablation — φ* with vs without cancellation", RunA2},
		{"A3", "Ablation — normalization (UCQ minimization) on vs off", RunA3},
		{"A4", "Ablation — FPT engine with vs without core computation", RunA4},
		{"A5", "Ablation — exact vs heuristic treewidth in the classifier", RunA5},
	}
}

// Get returns the spec with the given ID.
func Get(id string) (Spec, error) {
	for _, s := range All() {
		if strings.EqualFold(s.ID, id) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// timed runs f and returns its duration.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), nil2err(err)
}

func nil2err(err error) error { return err }

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fmtBig(x *big.Int) string {
	s := x.String()
	if len(s) > 24 {
		return s[:10] + "…(" + fmt.Sprint(len(s)) + " digits)"
	}
	return s
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
