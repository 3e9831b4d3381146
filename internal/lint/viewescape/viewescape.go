// Package viewescape enforces the zero-copy buffer-ownership contract
// around relation.View, interprocedurally.
//
// A View binds a decoded fragment directly over a registered receive
// buffer: its Frag() and Frame() results alias memory the transport will
// reuse the moment the buffer's credit is released. A view-derived value
// is therefore only valid while the pipeline stage holding the credit is
// on the stack. Materialize() is the single sanctioned way to take
// ownership: its result deep-copies the data and may go anywhere.
//
// It runs on the internal/lint/dataflow IR. Every function gets a
// def-use flow graph; bottom-up summaries record, per parameter, whether
// the callee escapes it (global store, channel send, goroutine handoff),
// flows it to a result, or stores it into another parameter. Summaries
// cross package boundaries as facts, and dynamic interface-method calls
// resolve to the union of concrete methods with a matching name and
// signature. A diagnostic fires in the function where the view is born
// (bound, read from a map/global, or returned fresh by a callee), at the
// statement where the alias ultimately leaves frame custody — whether
// directly or inside a callee chain. Returning a view to the caller or
// parking it in a caller-owned struct is no longer reported at the
// return/store itself: those flows are summarized and charged to the
// call site that lets them escape, which removes v1's false positives on
// plumbing helpers.
//
// Deliberate ownership handoffs (the ring's inflight queue, where the
// credit travels with the view) are annotated at the statement:
//
//	//cyclolint:viewsafe <justification>
package viewescape

import (
	"go/types"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow"
)

// relationPkg declares View; the implementation is summarized but not
// reported on.
const relationPkg = "cyclojoin/internal/relation"

// Analyzer flags relation.View aliases escaping their credit scope.
var Analyzer = &analysis.Analyzer{
	Name:      "viewescape",
	Doc:       "a relation.View alias (or anything it flows into, across calls) must not outlive the buffer credit without Materialize()",
	UsesFacts: true,
	Run:       run,
}

func run(pass *analysis.Pass) {
	g := dataflow.NewGraph(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)
	imported := make(map[string]*dataflow.Summary)
	for _, imp := range pass.Pkg.Imports() {
		for k, s := range dataflow.DecodeEscapeFacts(pass.ImportedFacts(imp.Path())) {
			imported[k] = s
		}
	}
	eng := dataflow.NewEscape(g, dataflow.EscapeConfig{
		Source:   isViewType,
		Launders: launders,
	}, imported)
	eng.Solve()
	pass.Export(eng.Facts())

	if pass.Pkg.Path() == relationPkg {
		// The implementation aliases itself freely; its real summaries
		// (what Bind stores, what Frame returns) still reach importers,
		// which is what keeps e.g. Bind's error result untainted.
		return
	}
	for _, f := range eng.Findings() {
		file := pass.File(f.Pos)
		if file != nil && f.Stmt != nil && pass.HasDirective(file, f.Stmt, "viewsafe") {
			continue
		}
		pass.Reportf(f.Pos,
			"relation.View alias %s: it aliases registered receive memory and must not outlive the buffer credit; Materialize() first, or annotate //cyclolint:viewsafe with the ownership argument", f.What)
	}
}

// launders recognizes View.Materialize: its result is a deep copy, so no
// taint crosses the call.
func launders(g *dataflow.Graph, cs *dataflow.CallSite) bool {
	fn := cs.Static
	if fn == nil {
		fn = cs.Iface
	}
	if fn == nil || fn.Name() != "Materialize" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return dataflow.IsNamedType(sig.Recv().Type(), relationPkg, "View")
}

// isViewType reports whether t is relation.View or *relation.View.
func isViewType(t types.Type) bool {
	return dataflow.IsNamedType(t, relationPkg, "View")
}
