package wal

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/structure"
)

// op is one step of a golden history: a structure creation or a fact
// append (with optional idempotency batch id).
type op struct {
	create  bool
	name    string
	sig     []RelSpec
	batchID string
	facts   string
}

// goldenOps is the history the recovery tests replay: two structures,
// several appends (one an exact duplicate batch), isolated elements.
var goldenOps = []op{
	{create: true, name: "g", sig: []RelSpec{{Name: "E", Arity: 2}, {Name: "L", Arity: 1}},
		facts: "universe a, b, c.\nE(a,b). E(b,c). L(a)."},
	{name: "g", batchID: "b1", facts: "E(c,a). L(b)."},
	{create: true, name: "h", facts: "P(x,y,z). Q(x)."},
	{name: "g", batchID: "b2", facts: "universe d.\nE(c,d). E(a,b)."},
	{name: "h", facts: "P(y,x,x)."},
	{name: "g", batchID: "b1dup", facts: "E(c,a). L(b)."}, // fully duplicate batch
	{name: "h", batchID: "b3", facts: "Q(y). Q(z)."},
}

// applyOp applies one op to an in-memory mirror, returning the inserted
// count for appends.
func applyOp(t *testing.T, mirror map[string]*structure.Structure, o op) int {
	t.Helper()
	if o.create {
		var sig *structure.Signature
		if len(o.sig) > 0 {
			rels := make([]structure.RelSym, len(o.sig))
			for i, rs := range o.sig {
				rels[i] = structure.RelSym{Name: rs.Name, Arity: rs.Arity}
			}
			s, err := structure.NewSignature(rels...)
			if err != nil {
				t.Fatalf("signature: %v", err)
			}
			sig = s
		}
		b, err := parser.ParseStructure(o.facts, sig)
		if err != nil {
			t.Fatalf("parse create %q: %v", o.name, err)
		}
		mirror[o.name] = b
		return 0
	}
	b := mirror[o.name]
	delta, err := parser.ParseStructure(o.facts, b.Signature())
	if err != nil {
		t.Fatalf("parse append to %q: %v", o.name, err)
	}
	n, err := structure.Merge(b, delta)
	if err != nil {
		t.Fatalf("merge into %q: %v", o.name, err)
	}
	return n
}

// logOp logs one op to the store (the caller applies it to its mirror
// to obtain the pre-version, mirroring the serving layer's
// log-then-apply order under the structure lock).
func logOp(t *testing.T, s *Store, mirror map[string]*structure.Structure, o op) {
	t.Helper()
	if o.create {
		if err := s.LogCreate(o.name, o.sig, o.facts); err != nil {
			t.Fatalf("LogCreate(%q): %v", o.name, err)
		}
		return
	}
	if err := s.LogAppend(o.name, o.batchID, mirror[o.name].Version(), o.facts); err != nil {
		t.Fatalf("LogAppend(%q): %v", o.name, err)
	}
}

// stateKey fingerprints a structure as version + canonical facts.
func stateKey(t *testing.T, b *structure.Structure) string {
	t.Helper()
	facts, err := b.FactsString()
	if err != nil {
		t.Fatalf("FactsString: %v", err)
	}
	return facts + "#v" + itoa(b.Version())
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// mirrorKeys fingerprints a whole mirror.
func mirrorKeys(t *testing.T, mirror map[string]*structure.Structure) map[string]string {
	t.Helper()
	out := make(map[string]string, len(mirror))
	for name, b := range mirror {
		out[name] = stateKey(t, b)
	}
	return out
}

// recoveredKeys fingerprints a recovery report.
func recoveredKeys(t *testing.T, rep *RecoverReport) map[string]string {
	t.Helper()
	out := make(map[string]string, len(rep.Structures))
	for _, rs := range rep.Structures {
		out[rs.Name] = stateKey(t, rs.B)
	}
	return out
}

func sameState(t *testing.T, got, want map[string]string) bool {
	t.Helper()
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// runGolden logs goldenOps into a fresh store at dir and returns the
// final mirror.
func runGolden(t *testing.T, dir string, fs FS, sync SyncPolicy) map[string]*structure.Structure {
	t.Helper()
	s, rep, err := Open(Options{Dir: dir, FS: fs, Sync: sync})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rep.Structures) != 0 {
		t.Fatalf("fresh dir recovered %d structures", len(rep.Structures))
	}
	mirror := make(map[string]*structure.Structure)
	for _, o := range goldenOps {
		logOp(t, s, mirror, o)
		applyOp(t, mirror, o)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return mirror
}

func TestOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	s, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if len(rep.Structures) != 0 || rep.Records != 0 || rep.Snapshots != 0 {
		t.Fatalf("empty dir report: %+v", rep)
	}
	if rep.TruncatedAt != -1 {
		t.Fatalf("empty dir reported truncation at %d", rep.TruncatedAt)
	}
	if got := s.WALSize(); got != int64(len(walMagic)) {
		t.Fatalf("fresh WAL size = %d, want %d", got, len(walMagic))
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mirror := runGolden(t, dir, nil, SyncAlways)

	_, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rep.TruncatedAt != -1 {
		t.Fatalf("clean log reported truncation: %+v", rep)
	}
	if rep.Records != len(goldenOps) {
		t.Fatalf("replayed %d records, want %d", rep.Records, len(goldenOps))
	}
	if !sameState(t, recoveredKeys(t, rep), mirrorKeys(t, mirror)) {
		t.Fatalf("recovered state differs from mirror:\n got %v\nwant %v",
			recoveredKeys(t, rep), mirrorKeys(t, mirror))
	}
	for _, rs := range rep.Structures {
		if err := rs.B.Audit(); err != nil {
			t.Fatalf("audit %q: %v", rs.Name, err)
		}
	}
}

func TestBatchResultsRecovered(t *testing.T) {
	dir := t.TempDir()
	runGolden(t, dir, nil, SyncBatch)

	_, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	byName := make(map[string][]BatchResult)
	for _, rs := range rep.Structures {
		byName[rs.Name] = rs.Batches
	}
	gIDs := []string{"b1", "b2", "b1dup"}
	if got := byName["g"]; len(got) != len(gIDs) {
		t.Fatalf("g batches = %+v, want ids %v", got, gIDs)
	} else {
		for i, id := range gIDs {
			if got[i].BatchID != id {
				t.Fatalf("g batch %d = %q, want %q", i, got[i].BatchID, id)
			}
		}
		// The duplicate batch must replay as a no-op: nothing inserted,
		// version unchanged since b2 (the last mutation of g).
		if got[2].Inserted != 0 {
			t.Fatalf("duplicate batch b1dup inserted %d", got[2].Inserted)
		}
		if got[2].Version != got[1].Version {
			t.Fatalf("no-op batch moved version: %+v", got)
		}
	}
	if got := byName["h"]; len(got) != 1 || got[0].BatchID != "b3" || got[0].Inserted != 2 {
		t.Fatalf("h batches = %+v, want one b3 with 2 inserted", got)
	}
}

func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, Sync: SyncBatch})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mirror := make(map[string]*structure.Structure)
	for _, o := range goldenOps[:4] {
		logOp(t, s, mirror, o)
		applyOp(t, mirror, o)
	}
	if err := s.Compact(mirror); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.WALSize(); got != int64(len(walMagic)) {
		t.Fatalf("post-compaction WAL size = %d, want %d", got, len(walMagic))
	}
	// Append past the compaction: recovery must stitch snapshot + tail.
	for _, o := range goldenOps[4:] {
		logOp(t, s, mirror, o)
		applyOp(t, mirror, o)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rep.Snapshots != 2 {
		t.Fatalf("recovered %d snapshots, want 2", rep.Snapshots)
	}
	if rep.Records != len(goldenOps)-4 {
		t.Fatalf("replayed %d tail records, want %d", rep.Records, len(goldenOps)-4)
	}
	if !sameState(t, recoveredKeys(t, rep), mirrorKeys(t, mirror)) {
		t.Fatalf("snapshot+tail recovery differs from mirror")
	}
}

func TestCompactionIsIdempotentForReplay(t *testing.T) {
	// Snapshots taken without truncating the WAL (a compaction that dies
	// between the two steps) must recover to the same state: replay over
	// the snapshot is a no-op.
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mirror := make(map[string]*structure.Structure)
	for _, o := range goldenOps {
		logOp(t, s, mirror, o)
		applyOp(t, mirror, o)
	}
	// Write the snapshots by hand, leaving wal.log untouched.
	for name, b := range mirror {
		data := EncodeSnapshot(name, b)
		f, err := OSFS{}.Create(s.snapPath(name))
		if err != nil {
			t.Fatalf("create snapshot: %v", err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatalf("write snapshot: %v", err)
		}
		f.Close()
	}
	s.Close()

	_, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with snapshot+full WAL: %v", err)
	}
	if rep.Snapshots != 2 || rep.Records != len(goldenOps) {
		t.Fatalf("report: %+v", rep)
	}
	if !sameState(t, recoveredKeys(t, rep), mirrorKeys(t, mirror)) {
		t.Fatalf("idempotent replay over snapshots diverged")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"Always", SyncAlways, true},
		{"batch", SyncBatch, true},
		{"", SyncBatch, true},
		{"never", SyncNever, true},
		{"off", SyncNever, true},
		{"sometimes", SyncBatch, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncBatch, SyncNever} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v via %q failed: %v, %v", p, p.String(), back, err)
		}
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.LogCreate("x", nil, "E(a,b)."); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("LogCreate on closed store: %v", err)
	}
	if err := s.Compact(nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Compact on closed store: %v", err)
	}
}

// Recovery rebuilds a binary relation's value-space rows equal to the
// ones the live structure kept: a structure that starts at 63 elements
// (no rows), gains its 64th (rows laid out) and grows past 65 (stride
// doubled) across appends, with a compaction in the middle, comes back
// from snapshot + tail with the mirror's rows.
func TestRecoveredRowsEqualMirror(t *testing.T) {
	var facts strings.Builder
	facts.WriteString("universe")
	for i := 0; i < 63; i++ {
		if i > 0 {
			facts.WriteString(",")
		}
		facts.WriteString(" v" + itoa(uint64(i)))
	}
	facts.WriteString(".\n")
	edge := func(sb *strings.Builder, u, v int) {
		sb.WriteString("E(v" + itoa(uint64(u)) + ",v" + itoa(uint64(v)) + "). ")
	}
	for i := 0; i < 63; i++ {
		edge(&facts, i, (i*7+3)%63)
	}
	ops := []op{{create: true, name: "r", sig: []RelSpec{{Name: "E", Arity: 2}}, facts: facts.String()}}
	for k := 0; k < 6; k++ {
		var sb strings.Builder
		n := 63 + k // the batch adds element v<n> and edges through it
		for j := 0; j < 5; j++ {
			edge(&sb, n, (n*j+k)%n)
		}
		ops = append(ops, op{name: "r", facts: sb.String()})
	}

	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, Sync: SyncBatch})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mirror := make(map[string]*structure.Structure)
	for i, o := range ops {
		logOp(t, s, mirror, o)
		applyOp(t, mirror, o)
		if i == 2 {
			if err := s.Compact(mirror); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := mirror["r"]
	if fwd, _, st := want.Rel("E").BitRows(); fwd == nil || st != 2 || want.Size() != 69 {
		t.Fatalf("the mirror should keep rows at stride 2 over 69 elements: rows %v, stride %d, %d elements", fwd != nil, st, want.Size())
	}
	_, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := rep.Structures[0].B
	gf, gb, gs := got.Rel("E").BitRows()
	wf, wb, ws := want.Rel("E").BitRows()
	if gs != ws || fmt.Sprint(gf) != fmt.Sprint(wf) || fmt.Sprint(gb) != fmt.Sprint(wb) {
		t.Fatalf("recovered rows differ from the mirror's: stride %d vs %d", gs, ws)
	}
	if err := got.Audit(); err != nil {
		t.Fatal(err)
	}
}
