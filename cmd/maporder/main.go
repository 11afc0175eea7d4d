// Command maporder is the deterministic-output audit `make check` runs:
// it flags `for … range m` statements where m is anything map-typed. Map
// iteration order is randomized per run, so any such loop that feeds a
// result struct, a rendered table, or an accumulating slice is a
// nondeterminism bug — the repo's outputs are golden-fingerprinted, and a
// map-order dependency surfaces as a flaky verify failure long after the
// PR that introduced it.
//
// Usage:
//
//	go run ./cmd/maporder DIR...
//
// Each DIR is walked recursively for package directories (testdata and
// _test.go files are skipped: test assertion loops don't feed
// fingerprinted output, and flagging them would bury the real signal in
// annotations). A site where iteration order provably cannot reach an
// output — per-key accumulation, draining a set into a sorted slice — is
// annotated with a trailing `// maporder:ok <why>` comment, which
// suppresses the finding and documents the reasoning at the loop.
//
// The audit type-checks every package it visits, so the range subject's
// map-ness is decided by go/types, not by syntax: maps arriving through
// function returns, struct fields, parameters, named map types, and
// declarations in sibling files are all in scope. Imports inside this
// module resolve by path mapping against go.mod; everything else (the
// standard library) resolves through the source importer. Residual type
// errors are tolerated — an expression the checker could not type is
// skipped, never guessed at.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: maporder DIR...")
		return 2
	}
	modRoot, modPath, err := findModule(".")
	if err != nil {
		fmt.Fprintf(stderr, "maporder: %v\n", err)
		return 2
	}

	// Collect package directories: every directory under the roots holding
	// at least one non-test .go file.
	dirSet := map[string]bool{}
	for _, dir := range args {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != dir {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dirSet[filepath.Dir(path)] = true
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(stderr, "maporder: %v\n", err)
			return 2
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for dir := range dirSet { // maporder:ok sorted immediately below
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	l := newLoader(modRoot, modPath)
	findings := 0
	for _, dir := range dirs {
		n, err := checkDir(l, dir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "maporder: %v\n", err)
			return 2
		}
		findings += n
	}
	if findings > 0 {
		fmt.Fprintf(stdout, "maporder: %d unannotated map-range site(s) — iterate a sorted key slice, or annotate with `// maporder:ok <why>`\n", findings)
		return 1
	}
	return 0
}

// findModule walks up from start to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(start string) (root, path string, err error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s", filepath.Join(dir, "go.mod"))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod at or above %s", start)
		}
		dir = parent
	}
}

// loader is a minimal module-aware package loader: import paths inside
// the module map to directories under the module root and are
// type-checked from source (memoized); everything else — the standard
// library — delegates to go/importer's source importer on the shared
// FileSet.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*types.Package
	loading map[string]bool
	// shared, when set, records the type information of every memoized
	// load (dependencies included), so one Info spans the whole module.
	shared *types.Info
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.moduleDir(path); ok {
		pkg, _, err := l.load(path, dir, nil)
		return pkg, err
	}
	return l.std.Import(path)
}

// moduleDir maps an import path inside this module to its directory.
func (l *loader) moduleDir(path string) (string, bool) {
	if path == l.modPath {
		return l.modRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// importPathOf derives a package path for a directory being audited. A
// directory outside the module (the tests' temporary trees) gets its
// absolute path as a synthetic package path — type-checking does not
// care, and module-internal imports still resolve through the loader.
func (l *loader) importPathOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return abs
	}
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// load parses and type-checks one package directory. Dependency loads
// (info == nil) are memoized and record into l.shared; audit loads pass an
// Info to capture the expression types the range scan needs.
func (l *loader) load(path, dir string, info *types.Info) (*types.Package, []*ast.File, error) {
	memo := info == nil
	if memo {
		if p, ok := l.pkgs[path]; ok {
			return p, nil, nil
		}
		if l.loading[path] {
			return nil, nil, fmt.Errorf("import cycle through %s", path)
		}
		info = l.shared
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		// The repo builds clean; any residual error (an unresolvable
		// import, platform-gated code) leaves the affected expressions
		// untyped, and untyped range subjects are skipped, not guessed at.
		Error: func(error) {},
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if memo {
		l.pkgs[path] = pkg
	}
	return pkg, files, nil
}

// parseDir parses the directory's non-test .go files in name order.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkDir type-checks one audited package and reports its unannotated
// map ranges.
func checkDir(l *loader, dir string, out io.Writer) (int, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	_, files, err := l.load(l.importPathOf(dir), dir, info)
	if err != nil {
		return 0, err
	}
	findings := 0
	for _, f := range files {
		findings += checkFile(l.fset, f, info, out)
	}
	return findings, nil
}

// checkFile scans one file's range statements against the package's type
// information.
func checkFile(fset *token.FileSet, f *ast.File, info *types.Info, out io.Writer) int {
	// Annotated lines: a `// maporder:ok` comment suppresses the finding on
	// its own line (trailing comment) or the line above.
	okLines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "maporder:ok") {
				line := fset.Position(c.Pos()).Line
				okLines[line] = true
				okLines[line+1] = true
			}
		}
	}
	findings := 0
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		pos := fset.Position(rs.Pos())
		if okLines[pos.Line] {
			return true
		}
		fmt.Fprintf(out, "%s:%d: range over map %q (iteration order is randomized)\n",
			pos.Filename, pos.Line, types.ExprString(rs.X))
		findings++
		return true
	})
	return findings
}
