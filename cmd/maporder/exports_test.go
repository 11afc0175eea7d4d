package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers keeps the internal packages' exported API
// down to what something uses. Every exported package-level function and
// method declared under internal/ needs either a reference from non-test
// code anywhere in the module (perfbench included), or a selector with its
// name in a test file of another package — a cross-package test hook.
// Tests of the declaring package alone do not count: they can reach an
// unexported name just as well. Methods named by an interface declared in
// the module, and String/Error, are reached through interfaces the type
// checker cannot follow, so they are skipped.
func TestInternalExportsHaveCallers(t *testing.T) {
	modRoot, modPath, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modRoot, modPath)
	l.shared = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}

	// testSels maps a directory to the selector names its _test.go files use.
	testSels := map[string]map[string]bool{}
	var pkgDirs []string
	err = filepath.WalkDir(modRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != modRoot {
				return filepath.SkipDir
			}
			if hasNonTestGo(path) {
				pkgDirs = append(pkgDirs, path)
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if testSels[dir] == nil {
			testSels[dir] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				testSels[dir][sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range pkgDirs {
		if _, err := l.Import(l.importPathOf(dir)); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range l.shared.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	for _, obj := range l.shared.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
	}

	var unused []string
	internal := modPath + "/internal/"
	for _, obj := range l.shared.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() || used[fn] || !strings.HasPrefix(fn.Pkg().Path(), internal) {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) || ifaceMethods[fn.Name()] {
				continue
			}
			rt := types.TypeString(recv.Type(), func(*types.Package) string { return "" })
			if strings.HasPrefix(rt, "*") {
				rt = "(" + rt + ")"
			}
			name = fn.Pkg().Name() + "." + rt + "." + fn.Name()
		} else if fn.Parent() != fn.Pkg().Scope() {
			continue
		}
		pos := l.fset.Position(fn.Pos())
		hooked := false
		for dir, sels := range testSels {
			if dir != filepath.Dir(pos.Filename) && sels[fn.Name()] {
				hooked = true
				break
			}
		}
		if !hooked {
			rel, _ := filepath.Rel(modRoot, pos.Filename)
			unused = append(unused, fmt.Sprintf("%s:%d: %s", rel, pos.Line, name))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but has no caller outside its own package's tests: delete it or unexport it", u)
	}
}

// hasNonTestGo reports whether dir directly holds a non-test .go file.
func hasNonTestGo(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
