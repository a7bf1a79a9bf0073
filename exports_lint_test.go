package xks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names the internal packages ("path") and symbols
// ("path.Name") that exist to serve tests, so a non-test reference is not
// required of them.
var testOnlyExports = map[string]bool{
	// The Dewey-code reference implementations the crosschecks compare
	// against; CI keeps every non-test package from importing it.
	"xks/internal/reference": true,
	// Fault plans and the goroutine-leak check are armed only by tests;
	// production calls fault.Inject, which is a no-op without a plan.
	"xks/internal/fault.NewPlan":    true,
	"xks/internal/fault.NewContext": true,
	"xks/internal/fault.LeakCheck":  true,
	// The paper's example documents, the fixtures of most tests.
	"xks/internal/paperdata": true,
	// Build a node table from Dewey codes and a code from its dotted form,
	// the way the tests state their inputs and expected answers.
	"xks/internal/nid.FromCodes":   true,
	"xks/internal/dewey.MustParse": true,
}

// TestInternalExportsHaveProductionCallers fails when an exported
// package-level func or type of an internal package is referenced only by
// _test.go files. The benchmark's sources under bench/ count as references,
// since it drives layers no request runs. It parses the sources without
// type-checking, so a reference is a selector on the package's import name
// or, inside the package, an identifier with the symbol's name.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := path.Join("xks", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: exported package-level funcs and types of internal/...
	declared := map[string]token.Pos{} // "path.Name" -> position
	for pkg, fs := range files {
		if !strings.HasPrefix(pkg, "xks/internal/") || testOnlyExports[pkg] {
			continue
		}
		for _, f := range fs {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						declared[pkg+"."+d.Name.Name] = d.Name.Pos()
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							declared[pkg+"."+ts.Name.Name] = ts.Name.Pos()
						}
					}
				}
			}
		}
	}

	// References: qualified selectors from other packages, bare identifiers
	// (other than the declaring one) inside the package.
	used := map[string]bool{}
	for pkg, fs := range files {
		for _, f := range fs {
			imports := map[string]string{} // local name -> import path
			for _, is := range f.Imports {
				p, _ := strconv.Unquote(is.Path.Value)
				name := path.Base(p)
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = p
			}
			sels := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sels[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if p, ok := imports[x.Name]; ok {
							used[p+"."+n.Sel.Name] = true
						}
					}
				case *ast.Ident:
					key := pkg + "." + n.Name
					if pos, ok := declared[key]; ok && pos != n.Pos() && !sels[n] {
						used[key] = true
					}
				}
				return true
			})
		}
	}

	var unused []string
	for sym, pos := range declared {
		if !used[sym] && !testOnlyExports[sym] {
			unused = append(unused, fset.Position(pos).String()+": "+sym)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no reference outside _test.go files: delete it, or move it to the tests that use it", u)
	}
}
