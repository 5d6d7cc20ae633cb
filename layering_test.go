package epcq_test

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// modulePath is the module's import path (go.mod).
const modulePath = "repro"

// importGraph maps each package of the module to its non-test imports
// inside the module.
type importGraph map[string][]string

// readImportGraph parses the package clause and imports of every
// directory of the module with go/build, which reads the files itself:
// no go command runs.
func readImportGraph(t *testing.T) importGraph {
	t.Helper()
	g := importGraph{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		imps := []string{} // non-nil: the package is in g even with no module imports
		for _, imp := range pkg.Imports {
			if imp == modulePath || strings.HasPrefix(imp, modulePath+"/") {
				imps = append(imps, imp)
			}
		}
		g[path] = imps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// importsNone lists the packages of bad that pkg imports.
func (g importGraph) importsNone(pkg string, bad ...string) []string {
	var out []string
	for _, imp := range g[pkg] {
		if slices.Contains(bad, imp) {
			out = append(out, pkg+" imports "+imp)
		}
	}
	return out
}

// importsOnly lists the internal packages pkg imports beyond allowed.
func (g importGraph) importsOnly(pkg string, allowed ...string) []string {
	var out []string
	for _, imp := range g[pkg] {
		if strings.HasPrefix(imp, modulePath+"/internal/") && !slices.Contains(allowed, imp) {
			out = append(out, pkg+" imports "+imp)
		}
	}
	return out
}

// importersAre reports pkg's non-test importers unless they are exactly
// want.
func (g importGraph) importersAre(pkg string, want ...string) []string {
	var got []string
	for p, imps := range g {
		if slices.Contains(imps, pkg) {
			got = append(got, p)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return []string{pkg + " is imported by " + strings.Join(got, ", ")}
	}
	return nil
}

// closureNone lists the packages of bad in the transitive non-test
// import closure of root.
func (g importGraph) closureNone(root string, bad ...string) []string {
	seen := map[string]bool{root: true}
	stack := []string{root}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, imp := range g[p] {
			if !seen[imp] {
				seen[imp] = true
				stack = append(stack, imp)
			}
		}
	}
	var out []string
	for _, b := range bad {
		if seen[b] {
			out = append(out, root+" depends on "+b)
		}
	}
	return out
}

// TestLayering pins the package layering: the executor stays off the
// hom solver and the graph package, the classifier reads widths off
// shapes, the router talks to nodes only through serve, the brute-force
// oracle and Theorem 3.1's reductions (with their linear algebra) stay
// out of the server, and the workload generators feed only epgen and the
// benchmark.  Every rule reads non-test imports only.
func TestLayering(t *testing.T) {
	const in = modulePath + "/internal/"
	g := readImportGraph(t)
	for _, pkg := range []string{in + "engine", in + "hom", in + "graph", in + "cluster", in + "serve", in + "classify", in + "tw",
		in + "count", in + "eptrans", in + "lin", in + "reduce", in + "workload", modulePath + "/cmd/epserved", modulePath + "/cmd/epcount", modulePath + "/cmd/epgen", modulePath + "/benchmark"} {
		if _, ok := g[pkg]; !ok {
			t.Fatalf("package %s not found: the rules below would hold vacuously", pkg)
		}
	}
	for _, row := range []struct {
		rule       string
		violations []string
	}{
		{"internal/engine does not import internal/hom",
			g.importsNone(in+"engine", in+"hom")},
		{"internal/cluster imports no internal package but internal/serve",
			g.importsOnly(in+"cluster", in+"serve")},
		{"internal/engine imports no internal/graph; internal/classify imports neither internal/graph nor internal/tw",
			append(g.importsNone(in+"engine", in+"graph"), g.importsNone(in+"classify", in+"graph", in+"tw")...)},
		{"internal/count, the oracle, has no importer but cmd/epcount and benchmark",
			g.importersAre(in+"count", modulePath+"/cmd/epcount", modulePath+"/benchmark")},
		{"internal/eptrans, the front end, imports none of internal/engine, internal/hom and internal/lin",
			g.importsNone(in+"eptrans", in+"engine", in+"hom", in+"lin")},
		{"internal/reduce has no importer but the epcq package",
			g.importersAre(in+"reduce", modulePath)},
		{"internal/workload, the generators, has no importer but cmd/epgen and benchmark",
			g.importersAre(in+"workload", modulePath+"/cmd/epgen", modulePath+"/benchmark")},
		{"cmd/epserved's import closure holds none of internal/reduce, internal/lin, internal/count and internal/workload",
			g.closureNone(modulePath+"/cmd/epserved", in+"reduce", in+"lin", in+"count", in+"workload")},
	} {
		if len(row.violations) > 0 {
			t.Errorf("%s: %s", row.rule, strings.Join(row.violations, "; "))
		}
	}
}
