// Package load type-checks packages for cyclolint without depending on
// golang.org/x/tools/go/packages: it drives `go list -test -export -deps
// -json` for package metadata and compiler export data, parses each
// package's sources with go/parser, and type-checks them with go/types
// using the gc importer fed from the export files — one package from
// source at a time, every import from export data.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path, without go list's " [p.test]" suffix.
	PkgPath string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed sources. A package with tests is its test
	// variant: its own files plus its in-package _test.go files. Its
	// external _test package is a Package of its own.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo holds the checker's facts about Files.
	TypesInfo *types.Info
	// DepOnly marks a module-local dependency of the matched packages,
	// loaded so its facts reach them; drivers report nothing in it.
	DepOnly bool
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
	Module     *struct{ Main bool }
}

// goList runs `go list -export -deps -json` (with -test when test is set)
// for patterns in dir and returns every package it reports, dependencies
// first.
func goList(dir string, test bool, patterns []string) ([]listEntry, error) {
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Name,Dir,Export,GoFiles,Imports,ImportMap,ForTest,DepOnly,Module"}
	if test {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			return entries, nil
		} else if err != nil {
			return nil, fmt.Errorf("load: decode go list output: %v", err)
		}
		entries = append(entries, e)
	}
}

// Exports returns the export-data index (import path → export file) of
// the packages matching patterns in dir and all their dependencies, test
// files excluded.
func Exports(dir string, patterns ...string) (map[string]string, error) {
	entries, err := goList(dir, false, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}

// Importer returns a types.Importer that reads gc export data files. The
// importMap translates import paths as written in source to the keys of
// exportFiles (identity when nil or missing).
func Importer(fset *token.FileSet, importMap, exportFiles map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// CheckFiles parses filenames and type-checks them as the package at
// pkgPath, resolving imports through imp. A file named in overlay is
// parsed from the overlay's bytes instead of the disk.
func CheckFiles(fset *token.FileSet, imp types.Importer, pkgPath string, filenames []string, overlay map[string][]byte) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		var src any
		if b, ok := overlay[name]; ok {
			src = b
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	// Instances records each generic instantiation, which the dataflow IR
	// needs to resolve instantiated callees back to their generic
	// declarations (ringq's SPSC[T] methods would otherwise be invisible).
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-check %s: %v", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: pkg, TypesInfo: info}, nil
}

// Packages loads and type-checks the packages matching patterns, rooted
// at dir (any directory inside the module), with their tests, plus their
// dependencies in the main module (DepOnly), dependencies first. A
// matched package is loaded as its test variant when it has in-package
// tests, and its external _test package follows it; a copy of a package
// recompiled only for another package's tests stands in for it when
// nothing else lists it. The standard library is only ever imported.
// overlay (file name → source) replaces files' contents in memory.
func Packages(dir string, overlay map[string][]byte, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, true, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	units := make(map[string]*listEntry) // by package path
	var paths []string
	for i := range entries {
		e := &entries[i]
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if e.Module == nil || !e.Module.Main || e.Name == "main" && strings.HasSuffix(e.ImportPath, ".test") {
			continue // the standard library, or a generated test main
		}
		path := pathOf(e.ImportPath)
		cur, ok := units[path]
		if !ok {
			paths = append(paths, path)
		}
		if !ok || variantRank(e) > variantRank(cur) {
			units[path] = e
		}
	}

	// A test variant imports more than its plain package, so go list's
	// order no longer fits once it stands in: order the units again,
	// depth first along their imports.
	var sorted []*listEntry
	visited := make(map[string]bool)
	var visit func(path string)
	visit = func(path string) {
		e := units[path]
		if e == nil || visited[path] {
			return
		}
		visited[path] = true
		for _, imp := range e.Imports {
			visit(pathOf(imp))
		}
		sorted = append(sorted, e)
	}
	for _, path := range paths {
		visit(path)
	}

	fset := token.NewFileSet()
	plain := Importer(fset, nil, exports)
	var pkgs []*Package
	for _, e := range sorted {
		if len(e.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(e.GoFiles))
		for i, g := range e.GoFiles {
			filenames[i] = filepath.Join(e.Dir, g)
		}
		// An import map points imports at test variants, which share
		// their plain packages' paths: such a package needs an importer
		// of its own.
		imp := plain
		if len(e.ImportMap) > 0 {
			imp = Importer(fset, e.ImportMap, exports)
		}
		pkg, err := CheckFiles(fset, imp, pathOf(e.ImportPath), filenames, overlay)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = e.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// pathOf strips go list's " [p.test]" variant suffix from a package ID.
func pathOf(id string) string {
	path, _, _ := strings.Cut(id, " ")
	return path
}

// variantRank orders the go list entries of one package path: its test
// variant, then the plain package, then a copy recompiled for another
// package's tests.
func variantRank(e *listEntry) int {
	switch {
	case e.ForTest != "" && pathOf(e.ImportPath) == e.ForTest:
		return 2
	case e.ImportPath == pathOf(e.ImportPath):
		return 1
	}
	return 0
}
