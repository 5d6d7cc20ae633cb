// Command doccheck enforces the repo's documentation bar:
//
//  1. every exported top-level symbol (and method) of the public epcq
//     package and of internal/serve carries a doc comment;
//  2. every internal/* package has a non-trivial package comment;
//  3. no comment under internal/* carries a "Deprecated:" paragraph: an
//     internal package has no outside caller to migrate, so a
//     deprecated shim there is only a second path — delete it.
//
// It exits non-zero listing every violation.  CI runs it next to go
// vet; locally: go run ./scripts/doccheck (or make doccheck).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPackageDoc is the least package-comment length (in characters of
// comment text) counted as non-trivial.
const minPackageDoc = 120

func main() {
	var problems []string

	// 1. Exported-symbol doc coverage on the public surface.
	for _, dir := range []string{".", "internal/serve"} {
		ps, err := checkExportedDocs(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}

	// 2 + 3. Non-trivial package comments and no deprecated shims across
	// internal/*.
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		ps, err := checkInternalPackage(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// parseDir parses a directory's non-test Go files with comments.
func parseDir(dir string) (*token.FileSet, map[string]*ast.Package, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	return fset, pkgs, err
}

// checkInternalPackage requires one substantial package comment in dir
// and no "Deprecated:" paragraph in any of its comments.
func checkInternalPackage(dir string) ([]string, error) {
	fset, pkgs, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	var problems []string
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		best := 0
		for _, f := range pkg.Files {
			if f.Doc != nil {
				if n := len(f.Doc.Text()); n > best {
					best = n
				}
			}
			for _, cg := range f.Comments {
				if strings.Contains("\n"+cg.Text(), "\nDeprecated:") {
					p := fset.Position(cg.Pos())
					problems = append(problems, fmt.Sprintf("%s:%d: Deprecated: under internal/ — delete the shim, its callers are all in this repository", p.Filename, p.Line))
				}
			}
		}
		switch {
		case best == 0:
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, name))
		case best < minPackageDoc:
			problems = append(problems, fmt.Sprintf("%s: package %s has a trivial package comment (%d chars < %d)", dir, name, best, minPackageDoc))
		}
	}
	return problems, nil
}

// checkExportedDocs requires a doc comment on every exported top-level
// declaration and method in dir.  A const/var/type group's doc covers
// its specs.
func checkExportedDocs(dir string) ([]string, error) {
	fset, pkgs, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s lacks a doc comment", p.Filename, p.Line, what))
	}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") || name == "main" && dir != "." {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if d.Recv != nil {
						// Methods: only require docs when the receiver
						// type is exported.
						if !exportedRecv(d.Recv) {
							continue
						}
						report(d.Pos(), fmt.Sprintf("method %s", d.Name.Name))
					} else {
						report(d.Pos(), fmt.Sprintf("function %s", d.Name.Name))
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && !groupDoc && sp.Doc == nil {
								report(sp.Pos(), fmt.Sprintf("type %s", sp.Name.Name))
							}
						case *ast.ValueSpec:
							if groupDoc || sp.Doc != nil || sp.Comment != nil {
								continue
							}
							for _, n := range sp.Names {
								if n.IsExported() {
									report(sp.Pos(), fmt.Sprintf("value %s", n.Name))
									break
								}
							}
						}
					}
				}
			}
		}
	}
	return problems, nil
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
