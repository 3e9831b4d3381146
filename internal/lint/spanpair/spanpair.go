// Package spanpair verifies that every trace span opened with
// trace.Shard.Begin is closed with End on every return path. Next closes
// its first argument and opens the span it returns.
//
// The flight recorder's spans are manually paired: Begin hands back a
// Pending by value and End stamps and records it. A return path that
// forgets End silently truncates the trace — the span never appears, and
// cyclotrace's residency analysis undercounts the phase. These leaks hide
// in exactly the paths tests rarely drive: shutdown selects, bind errors,
// full-queue bailouts.
//
// The package is a table for the typestate engine
// (internal/lint/dataflow/typestate): a Pending bound from Begin is Open
// along each control-flow path until End closes it; branches merge
// open-if-any-path-open, `defer shard.End(pd)` closes the span for every
// return after it, and panic/os.Exit paths are exempt. A span still Open
// at a return is reported at that return; a loop whose body Begins a span
// that is still Open at the back edge is reported at the Begin.
//
// Spans whose Pending escapes the function anywhere — stored in a struct
// field or map (the ring's send-reaper pattern), passed to a helper other
// than End — are skipped: cross-function pairing is the owner's contract,
// not this analyzer's. Setting its correlation fields and probing Active
// are plain uses, and a go'd helper that Ends the Pending takes the
// obligation over.
package spanpair

import (
	"go/ast"
	"go/types"
	"slices"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow/typestate"
)

// tracePkg declares Shard and Pending.
const tracePkg = "cyclojoin/internal/trace"

// Analyzer flags trace spans left open on a return path.
var Analyzer = &analysis.Analyzer{
	Name: "spanpair",
	Doc:  "every trace.Shard.Begin must reach a matching End on all return paths (defer-aware)",
	Run:  func(pass *analysis.Pass) { typestate.Run(pass, table) },
}

var table = &typestate.Table{
	Skip:   tracePkg,
	Tracks: isPending,
	Acquire: func(pass *analysis.Pass, e ast.Expr, slot int) (ast.Expr, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		return nil, ok && (pass.IsMethodOn(call, tracePkg, "Shard", "Begin") || pass.IsMethodOn(call, tracePkg, "Shard", "Next"))
	},
	Release: release,
	Escapes: escapes,
	Msg: typestate.Messages{
		Held:     "trace span %s (Begin at %s) is still open on this return path; call End before returning or defer it",
		BackEdge: "trace span %s is still open at the loop's back edge; the next iteration's Begin orphans it — End it before the iteration ends",
	},
}

func isPending(t types.Type) bool {
	return analysis.IsNamed(t, tracePkg, "Pending")
}

// release matches End(pd) and Next(pd, p).
func release(pass *analysis.Pass, n ast.Node) ast.Expr {
	if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 &&
		(pass.IsMethodOn(call, tracePkg, "Shard", "End") || pass.IsMethodOn(call, tracePkg, "Shard", "Next")) {
		return call.Args[0]
	}
	return nil
}

// escapes finds the Pendings in body used other than as a declared name,
// an assignment target, the base of a field or method selection, End's
// argument, or the argument of a go'd helper that Ends it.
func escapes(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	parents := typestate.Parents(body)
	out := make(map[types.Object]bool)
	for n, p := range parents {
		id, ok := n.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil || !isPending(obj.Type()) {
			continue
		}
		allowed := false
		switch p := p.(type) {
		case *ast.ValueSpec:
			allowed = slices.Contains(p.Names, id)
		case *ast.AssignStmt:
			allowed = slices.Contains(p.Lhs, ast.Expr(id))
		case *ast.SelectorExpr:
			allowed = p.X == ast.Expr(id)
		case *ast.CallExpr:
			i := slices.Index(p.Args, ast.Expr(id))
			g, spawned := parents[p].(*ast.GoStmt)
			allowed = i >= 0 && (release(pass, p) != nil || spawned && g.Call == p && endsParam(pass, p, i))
		}
		if !allowed {
			out[obj] = true
		}
	}
	return out
}

// endsParam reports whether call's static same-package callee Ends its
// i'th parameter.
func endsParam(pass *analysis.Pass, call *ast.CallExpr, i int) bool {
	var name *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f
	case *ast.SelectorExpr:
		name = f.Sel
	}
	fn, ok := pass.TypesInfo.Uses[name].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return false
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.TypesInfo.Defs[fd.Name] != fn.Origin() {
				continue
			}
			var params []*ast.Ident
			for _, field := range fd.Type.Params.List {
				params = append(params, field.Names...)
			}
			if i >= len(params) {
				return false
			}
			target := pass.TypesInfo.Defs[params[i]]
			ended := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if arg, ok := ast.Unparen(release(pass, n)).(*ast.Ident); ok && target != nil && pass.TypesInfo.Uses[arg] == target {
					ended = true
				}
				return !ended
			})
			return ended
		}
	}
	return false
}
