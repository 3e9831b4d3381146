// Package unsafeonly confines unsafe aliasing to the files built for it.
//
// The zero-copy hot path reinterprets registered receive memory as a key
// column via unsafe.Slice — but only on hosts whose byte order matches
// the wire format, which is why the aliasing lives in a build-tagged
// endian file with a portable fallback next to it. Letting unsafe leak
// into untagged files would quietly break the big-endian build and widen
// the audit surface for aliasing bugs, so the import is allowed only in
// an explicit allowlist of build-constrained files.
package unsafeonly

import (
	"go/ast"
	"path/filepath"
	"strings"

	"cyclojoin/internal/lint/analysis"
)

// Allowlist holds the path suffixes (slash-separated) of files permitted
// to import unsafe. Each must also carry a //go:build constraint.
var Allowlist = []string{
	"internal/relation/endian_le.go",
}

// Analyzer flags unsafe imports outside the allowlist.
var Analyzer = &analysis.Analyzer{
	Name: "unsafeonly",
	Doc:  "unsafe may be imported only by allowlisted build-tagged endian files",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if imp.Path.Value != `"unsafe"` {
				continue
			}
			name := filepath.ToSlash(pass.Fset.Position(imp.Pos()).Filename)
			if !allowed(name) {
				pass.Reportf(imp.Pos(),
					"unsafe import outside the endian allowlist: confine aliasing to build-tagged files (see unsafeonly.Allowlist)")
				continue
			}
			if !hasBuildConstraint(file) {
				pass.Reportf(imp.Pos(),
					"allowlisted unsafe file %s lacks a //go:build constraint; the portable fallback must be selectable", filepath.Base(name))
			}
		}
	}
}

func allowed(filename string) bool {
	for _, suffix := range Allowlist {
		if strings.HasSuffix(filename, suffix) {
			return true
		}
	}
	return false
}

// hasBuildConstraint reports whether the file carries a //go:build line
// above the package clause.
func hasBuildConstraint(file *ast.File) bool {
	for _, cg := range file.Comments {
		if cg.Pos() >= file.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//go:build ") {
				return true
			}
		}
	}
	return false
}
