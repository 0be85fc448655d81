// Command deadcode lists the exported package-level identifiers under
// internal/ that no non-test code in the module uses: code that only
// tests keep alive. It type-checks every package of the module from
// source with the standard library alone (go/build, go/parser, go/types
// and the "source" importer), so it needs no download.
//
// Run it from anywhere inside the module:
//
//	go run ./scripts/deadcode
//
// It exits 1 when it finds an identifier that is not on the kept list
// below, and when a kept identifier is gone or has gained a non-test use,
// so the list stays exact.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// kept names the test-only exports that stay, each with its reason.
var kept = map[string]string{
	"htap/internal/chaos.Run":          "the crash-recovery harness; the package is a test harness, and its tests are the driver",
	"htap/internal/chaos.Subjects":     "the WAL-recoverable architectures chaos.Run is driven over, by its tests",
	"htap/internal/chaos.RunMemGate":   "the memory gate, which CI's \"Memory gate\" step runs through TestMemGate",
	"htap/internal/raft.NewLocalGroup": "NewLocalGroupWith at default timing, the shorthand the raft tests build groups with",
	"htap/internal/ch.SkewedScale":     "the JCC-H-style skewed scale, pinned by its tests; no driver selects it yet",
}

func main() {
	root, mod, err := module()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	l := &loader{
		root: root, mod: mod,
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		used: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := mod
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Import(path); err != nil {
			fmt.Fprintln(os.Stderr, "deadcode:", err)
			os.Exit(2)
		}
	}

	var dead []string
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, mod+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if key := path + "." + name; token.IsExported(name) && !l.used[key] {
				dead = append(dead, key)
			}
		}
	}
	sort.Strings(dead)
	failed := false
	for _, key := range dead {
		if reason, ok := kept[key]; ok {
			fmt.Printf("kept  %s: %s\n", key, reason)
			continue
		}
		fmt.Printf("DEAD  %s: only tests use it, or nothing does; delete it or use it\n", key)
		failed = true
	}
	for key := range kept {
		if i := sort.SearchStrings(dead, key); i == len(dead) || dead[i] != key {
			fmt.Printf("STALE %s: on the kept list but not test-only any more; drop it from the list\n", key)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loader type-checks the module's packages from source, without their
// tests, recording every use of a package-level object of the module.
type loader struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*types.Package
	used      map[string]bool // "path.Name" of every object a non-test file uses
}

// Import implements types.Importer: module packages are checked here,
// the rest (the standard library) by the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, obj := range info.Uses {
		if p := obj.Pkg(); p != nil && obj.Parent() == p.Scope() {
			l.used[p.Path()+"."+obj.Name()] = true
		}
	}
	return pkg, nil
}

// module finds the enclosing module's root directory and path.
func module() (root, path string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return dir, f[1], nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod names no module", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// packageDirs lists the module's directories that hold non-test Go
// files, skipping testdata and hidden or underscore directories, as the
// go command does.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
