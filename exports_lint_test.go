package xks

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names the internal packages ("path"), symbols
// ("path.Name") and methods ("path.Type.Method") that exist to serve tests,
// so a non-test reference is not required of them.
var testOnlyExports = map[string]bool{
	// The Dewey-code reference implementations the crosschecks compare
	// against, and the paper's example documents, the fixtures of most
	// tests; CI keeps every non-test package from importing it.
	"xks/internal/reference": true,
	// Fault plans and the goroutine-leak check are armed only by tests;
	// production calls fault.Inject, which is a no-op without a plan.
	"xks/internal/fault.NewPlan":    true,
	"xks/internal/fault.NewContext": true,
	"xks/internal/fault.LeakCheck":  true,
	// The paper's example documents, the fixtures of most tests.
	// Build a node table from Dewey codes and a code from its dotted form,
	// the way the tests state their inputs and expected answers.
	"xks/internal/nid.FromCodes":   true,
	"xks/internal/dewey.MustParse": true,
	// The axioms tests extend a copy of a document and compare the answers
	// before and after.
	"xks/internal/xmltree.Tree.Clone": true,
	// The dataset-shape tests of datagen, stats and store count labels.
	"xks/internal/xmltree.Tree.LabelHistogram": true,
}

// standardMethod reports whether a method name is one a standard library
// interface calls implicitly (fmt.Stringer, error and its unwrapping,
// io.Writer and its relatives), so no selector in the module's sources
// names the call.
func standardMethod(name string) bool {
	return name == "String" || name == "Error" || name == "Unwrap" || strings.HasPrefix(name, "Write")
}

// TestInternalExportsHaveProductionCallers fails when an exported
// package-level func or type, or an exported method, of an internal package
// is referenced only by _test.go files or by the sources of a package that
// serves tests (testOnlyExports). The benchmark's sources under bench/
// count as references, since it drives layers no request runs. Every
// package's non-test files are type-checked (their imports read from the
// export data `go list -export` reports), so a reference is an identifier
// the type checker resolves to the symbol: a method call names its
// receiver's type, and slices.Clone is no use of Tree.Clone. A method
// called through an interface counts for every method of that name, and
// standardMethod's names are exempt.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files of this build
	imports := map[string]bool{}
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
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := path.Join("xks", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			imports[ip] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	imp := importer.ForCompiler(fset, "gc", exportData(t, imports))
	declared := map[string]token.Pos{} // "path.Name" or "path.Type.Method" -> position
	used := map[string]bool{}
	ifaceUsed := map[string]bool{} // names of interface methods called
	for pkg, fs := range files {
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(pkg, fset, fs, info); err != nil {
			t.Fatalf("type-checking %s: %v", pkg, err)
		}
		if testOnlyExports[pkg] {
			// A package that serves tests declares no production symbols,
			// and its uses are not production callers.
			continue
		}
		if strings.HasPrefix(pkg, "xks/internal/") {
			for id, obj := range info.Defs {
				if key := symbol(obj); key != "" {
					declared[key] = id.Pos()
				}
			}
		}
		for _, obj := range info.Uses {
			if key := symbol(obj); key != "" {
				used[key] = true
			}
			if fn, ok := obj.(*types.Func); ok && recvType(fn) != nil && types.IsInterface(recvType(fn)) {
				ifaceUsed[fn.Name()] = true
			}
		}
	}

	var unused []string
	for sym, pos := range declared {
		name := sym[strings.LastIndexByte(sym, '.')+1:]
		method := strings.Count(strings.TrimPrefix(sym, "xks/internal/"), ".") == 2
		if used[sym] || testOnlyExports[sym] || method && (ifaceUsed[name] || standardMethod(name)) {
			continue
		}
		unused = append(unused, fset.Position(pos).String()+": "+sym)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no reference outside _test.go files: delete it, or move it to the tests that use it", u)
	}
}

// symbol keys an exported package-level func or type ("path.Name"), or an
// exported method of a named type ("path.Type.Method"), and returns "" for
// any other object.
func symbol(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	switch obj := obj.(type) {
	case *types.TypeName:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *types.Func:
		fn := obj.Origin()
		recv := recvType(fn)
		if recv == nil {
			return fn.Pkg().Path() + "." + fn.Name()
		}
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok && !types.IsInterface(named) {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return ""
}

// recvType is a method's receiver type, nil for a plain func.
func recvType(fn *types.Func) types.Type {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return recv.Type()
	}
	return nil
}

// exportData runs `go list -export` once over the module and the packages
// the walked sources import, and returns the gc importer's lookup into the
// export data files it reports.
func exportData(t *testing.T, imports map[string]bool) func(string) (io.ReadCloser, error) {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "./..."}
	for ip := range imports {
		if !strings.HasPrefix(ip, "xks/") && ip != "xks" {
			args = append(args, ip)
		}
	}
	out, err := exec.Command(goTool(), args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if ip, file, ok := strings.Cut(sc.Text(), " "); ok && file != "" {
			exports[ip] = file
		}
	}
	return func(ip string) (io.ReadCloser, error) {
		file, ok := exports[ip]
		if !ok {
			return nil, fs.ErrNotExist
		}
		return os.Open(file)
	}
}

// goTool is the go command of the toolchain running the test.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(build.Default.GOROOT, "bin", "go")
}
