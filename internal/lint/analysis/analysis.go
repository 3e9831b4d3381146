// Package analysis is a dependency-free core for cyclolint's custom
// analyzers, mirroring the shape of golang.org/x/tools/go/analysis (which
// this repo deliberately does not vendor: the module is stdlib-only). An
// Analyzer inspects one type-checked package at a time and reports
// diagnostics. CheckPackage is the one place a Pass is built: the
// cyclolint command, the module-wide tests and the linttest harness all
// run the suite through it.
//
// The repo-specific part is the directive convention: analyzers that
// enforce hot-path invariants are steered by machine-readable comments of
// the form
//
//	//cyclolint:hotpath   (function doc comment: zero-alloc contract)
//	//cyclolint:coldpath  (statement: excluded error/slow branch)
//	//cyclolint:viewsafe  (statement: sanctioned view ownership handoff)
//
// A statement directive attaches to the statement it trails on the same
// line, or to the statement starting on the line directly below it. See
// DESIGN.md §9 for the full convention.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check: a name for diagnostics and flags, a doc
// string, and the per-package Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only/-skip flags.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// UsesFacts marks analyzers that exchange per-package summaries
	// (facts) with their runs over dependency packages. CheckPackage runs
	// only these over a fact-only dependency, and keeps their blobs in
	// the run's Facts.
	UsesFacts bool
	// Run inspects one package via the Pass and reports findings.
	Run func(*Pass) error
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed sources (comments retained).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's facts about Files.
	TypesInfo *types.Info
	// Report consumes one diagnostic.
	Report func(Diagnostic)

	// facts is the run's fact store, read by ImportedFacts and written
	// by Export.
	facts Facts

	// directives caches the per-file directive index.
	directives map[*ast.File]map[int][]string
}

// Diagnostic is one finding, positioned in Fset. End is optional (NoPos
// means "just Pos"). Fixes carry machine-applicable suggested edits the
// -fix driver can apply.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos
	Message string
	Fixes   []SuggestedFix
}

// SuggestedFix is one machine-applicable resolution of a diagnostic. All
// edits must apply together.
type SuggestedFix struct {
	// Message says what applying the fix does ("rename to frame_bytes").
	Message string
	// Edits are the non-overlapping text replacements.
	Edits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText. A zero-width
// range (End == Pos) is an insertion.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// ImportedFacts returns the fact blob this analyzer exported for the
// imported package at path, or nil when none exists (a package outside
// the module, or not loaded in this run).
func (p *Pass) ImportedFacts(path string) []byte {
	return p.facts[p.Analyzer.Name][path]
}

// Export records this package's fact blob for the passes over the
// packages that import it.
func (p *Pass) Export(data []byte) {
	byPkg := p.facts[p.Analyzer.Name]
	if byPkg == nil {
		byPkg = make(map[string][]byte)
		p.facts[p.Analyzer.Name] = byPkg
	}
	byPkg[p.Pkg.Path()] = data
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DirectivePrefix introduces every cyclolint source directive.
const DirectivePrefix = "//cyclolint:"

// fileDirectives indexes a file's cyclolint directives by the line each
// comment sits on. Multiple directives may share a line.
func fileDirectives(fset *token.FileSet, f *ast.File) map[int][]string {
	idx := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			name := strings.TrimPrefix(c.Text, DirectivePrefix)
			// A justification may follow the directive name after a space:
			//   //cyclolint:viewsafe credit is withheld until release
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				name = name[:i]
			}
			line := fset.Position(c.Pos()).Line
			idx[line] = append(idx[line], name)
		}
	}
	return idx
}

// HasDirective reports whether the named directive is attached to node: a
// "//cyclolint:name" comment on the node's first line or on the line
// directly above it.
func (p *Pass) HasDirective(file *ast.File, node ast.Node, name string) bool {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	idx, ok := p.directives[file]
	if !ok {
		idx = fileDirectives(p.Fset, file)
		p.directives[file] = idx
	}
	line := p.Fset.Position(node.Pos()).Line
	for _, l := range []int{line, line - 1} {
		for _, d := range idx[l] {
			if d == name {
				return true
			}
		}
	}
	return false
}

// FuncHasDirective reports whether a function declaration's doc comment
// carries the named directive.
func FuncHasDirective(decl *ast.FuncDecl, name string) bool {
	if decl.Doc == nil {
		return false
	}
	want := DirectivePrefix + name
	for _, c := range decl.Doc.List {
		text := c.Text
		if text == want || strings.HasPrefix(text, want+" ") || strings.HasPrefix(text, want+"\t") {
			return true
		}
	}
	return false
}

// File returns the *ast.File containing pos, or nil.
func (p *Pass) File(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// IsMethodOn reports whether the call invokes a method with the given
// name declared on the named type (or a pointer to it) from the package
// with path pkgPath. This is how analyzers recognize trace.Shard.Begin,
// metrics.Registry.Counter and friends without importing those packages.
func (p *Pass) IsMethodOn(call *ast.CallExpr, pkgPath, typeName, methodName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != methodName {
		return false
	}
	selection, ok := p.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	return IsNamed(recv, pkgPath, typeName)
}

// IsNamed reports whether t is the named type pkgPath.typeName, possibly
// behind a pointer.
func IsNamed(t types.Type, pkgPath, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == typeName &&
		obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
