// Package load type-checks packages for cyclolint without depending on
// golang.org/x/tools/go/packages: it drives `go list -export -deps -json`
// for package metadata and compiler export data, parses the target
// packages' sources with go/parser, and type-checks them with go/types
// using the gc importer fed from the export files. This is the same
// shape the go vet unitchecker protocol uses — one package type-checked
// from source, every dependency imported from export data — so the
// standalone driver and the -vettool driver share these primitives.
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
	// PkgPath is the canonical import path.
	PkgPath string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed compiled sources (no _test.go files — the
	// invariants cyclolint enforces are production hot-path contracts).
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
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Main bool }
}

// GoList runs `go list -export -deps -json` for patterns in dir and
// returns the export-data index (import path → export file) plus the
// matched packages and their dependencies in the main module (DepOnly
// set), in dependency order. Other dependencies contribute export data
// only.
func GoList(dir string, patterns ...string) (map[string]string, []listEntry, error) {
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Export,Dir,GoFiles,Standard,DepOnly,Module"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	exports := make(map[string]string)
	var targets []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("load: decode go list output: %v", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.Standard && (!e.DepOnly || e.Module != nil && e.Module.Main) {
			targets = append(targets, e)
		}
	}
	return exports, targets, nil
}

// Importer returns a types.Importer that reads gc export data files. The
// importMap translates import paths as written in source to the
// canonical paths keying exportFiles (identity when nil or missing).
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

// NewInfo returns a types.Info with every fact map analyzers consume.
// Instances records each generic function/method instantiation, which the
// dataflow IR needs to resolve instantiated callees back to their generic
// declarations (ringq's SPSC[T] methods would otherwise be invisible).
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// CheckFiles parses filenames and type-checks them as the package at
// pkgPath, resolving imports through imp.
func CheckFiles(fset *token.FileSet, imp types.Importer, pkgPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-check %s: %v", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: pkg, TypesInfo: info}, nil
}

// Packages loads and type-checks the packages matching patterns, rooted
// at dir (any directory inside the module), and their dependencies in the
// main module (DepOnly), in dependency order. Every import resolves
// through export data.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	exports, targets, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := Importer(fset, nil, exports)
	var pkgs []*Package
	for _, e := range targets {
		if len(e.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(e.GoFiles))
		for i, g := range e.GoFiles {
			filenames[i] = filepath.Join(e.Dir, g)
		}
		pkg, err := CheckFiles(fset, imp, e.ImportPath, filenames)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = e.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
