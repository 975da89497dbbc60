// Package apicheck keeps the module free of dead exports. Its one test
// type-checks every non-test file of the module, and of the benchmark
// module in bench/ (which counts as a caller but is only read), and
// reports each exported package-level func, type, var or const and each
// exported method that no non-test file uses. A reported identifier must
// be deleted or listed in testdata/allowlist.txt with a reason; a listed
// identifier that is no longer reported must leave the list, so the list
// only shrinks.
package apicheck

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// alwaysSkipped are method names that satisfy standard-library
// interfaces (fmt.Stringer, error, json.Marshaler, io.Reader and
// friends, sort.Interface), which Info.Uses cannot see being called.
var alwaysSkipped = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
}

// pkg is one package of the scan.
type pkg struct {
	path    string
	name    string
	files   []*ast.File
	imports []string
	report  bool // a package of the module itself, not of bench/
	types   *types.Package
	info    *types.Info
}

func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// The standard library is type-checked from source; without cgo, so
	// no C toolchain is needed and net's pure-Go files are read.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{}
	if err := load(fset, root, "smallworld", true, pkgs); err != nil {
		t.Fatal(err)
	}
	if err := load(fset, filepath.Join(root, "bench"), "smallworld/bench", false, pkgs); err != nil {
		t.Fatal(err)
	}
	if err := check(fset, pkgs); err != nil {
		t.Fatal(err)
	}
	reported := deadExports(pkgs)

	allow, problems := readAllowlist(filepath.Join("testdata", "allowlist.txt"))
	for _, id := range reported {
		if _, ok := allow[id]; !ok {
			problems = append(problems, fmt.Sprintf(
				"%s is exported but no non-test code uses it: delete it, or list it in testdata/allowlist.txt with a # reason", id))
		}
	}
	for id, line := range allow {
		if !slices.Contains(reported, id) {
			problems = append(problems, fmt.Sprintf(
				"allowlist.txt:%d: %s is no longer reported (deleted, or now used): remove the line", line, id))
		}
	}
	slices.Sort(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// load parses the non-test files of every package under dir, whose
// module path is mod, into pkgs. Nested modules, testdata and hidden
// directories are skipped.
func load(fset *token.FileSet, dir, mod string, report bool, pkgs map[string]*pkg) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		p := &pkg{path: mod, name: bp.Name, report: report}
		if rel != "." {
			p.path = mod + "/" + filepath.ToSlash(rel)
		}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(path, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		for _, imp := range bp.Imports {
			if imp == "smallworld" || strings.HasPrefix(imp, "smallworld/") {
				p.imports = append(p.imports, imp)
			}
		}
		pkgs[p.path] = p
		return nil
	})
}

// check type-checks pkgs in import order. Module packages are imported
// from the set already checked, the standard library from source.
func check(fset *token.FileSet, pkgs map[string]*pkg) error {
	imp := &moduleImporter{pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil)}
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := pkgs[path]
		if !ok {
			return fmt.Errorf("the scan did not find imported package %s", path)
		}
		if p.types != nil {
			return nil
		}
		for _, dep := range p.imports {
			if err := visit(dep); err != nil {
				return err
			}
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return err
		}
		p.types = tp
		return nil
	}
	for path := range pkgs {
		if err := visit(path); err != nil {
			return err
		}
	}
	return nil
}

type moduleImporter struct {
	pkgs map[string]*pkg
	std  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p.types, nil
	}
	return m.std.Import(path)
}

// deadExports returns, sorted, every exported package-level identifier
// and every exported method declared in a reported non-main package
// that no scanned file uses. A method is skipped when its name belongs
// to an interface type declared or written anywhere in the scan, since
// a call through an interface is not a use of the concrete method.
func deadExports(pkgs map[string]*pkg) []string {
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}
	for _, p := range pkgs {
		// A method's receiver names its own type; that is no use of it.
		recv := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.InterfaceType:
					if iface, ok := p.info.Types[n].Type.(*types.Interface); ok {
						for i := range iface.NumMethods() {
							ifaceMethods[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if !recv[id] {
				used[origin(obj)] = true
			}
		}
		for _, sel := range p.info.Selections {
			used[origin(sel.Obj())] = true
		}
	}
	var dead []string
	for _, p := range pkgs {
		if !p.report || p.name == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				dead = append(dead, p.path+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() && !used[m] && !alwaysSkipped[m.Name()] && !ifaceMethods[m.Name()] {
					dead = append(dead, p.path+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(dead)
	return dead
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// readAllowlist reads the allowlist: one identifier a line, as the test
// reports it, then "# " and the reason it stays. Blank lines and lines
// that start with '#' are comments. It returns each listed identifier
// with its line number, and a problem for each line without a reason.
func readAllowlist(path string) (map[string]int, []string) {
	allow := map[string]int{}
	f, err := os.Open(path)
	if err != nil {
		return allow, []string{err.Error()}
	}
	defer f.Close()
	var problems []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, "#")
		id = strings.TrimSpace(id)
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("allowlist.txt:%d: %s has no # reason", n, id))
		}
		allow[id] = n
	}
	if err := sc.Err(); err != nil {
		problems = append(problems, err.Error())
	}
	return allow, problems
}
