// Package spscrole enforces the single-producer/single-consumer role
// contract on ringq.SPSC queues: a table over the dataflow origin engine.
//
// A ringq.SPSC ring is wait-free precisely because exactly one goroutine
// advances the head and exactly one advances the tail. The type system
// cannot say which goroutine that is, so the discipline lives in code
// review — until a refactor quietly adds a second pusher and the ring
// corrupts under load. spscrole makes it checkable: every push
// (TryPush/Push) or pop (TryPop/Pop) is an op on its queue, and the
// engine attributes it to the goroutine origins of the code performing
// it — through helpers that take the queue as a parameter, and across
// packages through the facts. A queue with two distinct push origins
// (or two pop origins) is a diagnostic.
//
// Two origins of the same endpoint are not always a bug: mutually
// exclusive configurations may each own a loop, or a drain path may
// run after the producer goroutine has provably exited. Those sanctioned
// hand-offs are annotated at the operation (or on the function's doc
// comment) with the reason:
//
//	//cyclolint:role the inline injector precedes the loader goroutine; the two never overlap
package spscrole

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow"
)

// Analyzer flags SPSC queues with more than one producer or consumer
// goroutine origin.
var Analyzer = &analysis.Analyzer{
	Name:      "spscrole",
	Doc:       "a ringq.SPSC endpoint (push or pop) must be reachable from a single goroutine origin; annotate //cyclolint:role for sanctioned hand-offs",
	UsesFacts: true,
	Run: func(pass *analysis.Pass) {
		dataflow.RunTable(pass, &dataflow.Table[string]{
			Directive: "role", Params: true, Visit: visit, Check: check,
		})
	},
}

// visit recognizes a push or pop on an SPSC queue; the payload is the
// endpoint, "push" or "pop".
func visit(e *dataflow.Engine[string], c *dataflow.Ctx, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return true
	}
	kind := ""
	switch sel.Sel.Name {
	case "TryPush", "Push":
		kind = "push"
	case "TryPop", "Pop":
		kind = "pop"
	default:
		return true
	}
	if s, ok := e.G.Info.Selections[sel]; ok && s.Kind() == types.MethodVal &&
		dataflow.IsNamedType(s.Recv(), "cyclojoin/internal/ringq", "SPSC") {
		e.Emit(c, call, sel.X, call.Pos(), kind)
	}
	return true
}

// check reports every queue endpoint reached from two or more origins by
// unexcused ops, citing each origin's first op.
func check(e *dataflow.Engine[string], attrs []dataflow.Attr[string]) {
	type endpoint struct {
		res, kind string
		byOrigin  map[string]dataflow.Attr[string]
		first     token.Pos
	}
	eps := make(map[string]*endpoint)
	var keys []string
	for _, a := range attrs {
		if a.Safe {
			continue
		}
		k := a.Res + "\x00" + a.P
		ep := eps[k]
		if ep == nil {
			ep = &endpoint{res: a.Res, kind: a.P, byOrigin: make(map[string]dataflow.Attr[string]), first: a.Pos}
			eps[k] = ep
			keys = append(keys, k)
		}
		if prev, ok := ep.byOrigin[a.Origin]; !ok || a.Pos < prev.Pos {
			ep.byOrigin[a.Origin] = a
		}
		ep.first = min(ep.first, a.Pos)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ep := eps[k]
		if len(ep.byOrigin) < 2 {
			continue
		}
		origins := make([]string, 0, len(ep.byOrigin))
		for o := range ep.byOrigin {
			origins = append(origins, o)
		}
		sort.Strings(origins)
		for i, o := range origins {
			origins[i] = o + " (at " + ep.byOrigin[o].Site + ")"
		}
		role := "producer"
		if ep.kind == "pop" {
			role = "consumer"
		}
		e.Pass.Reportf(ep.first,
			"SPSC %s %s has %d %s origins: %s; the ring is wait-free only with a single %s — annotate //cyclolint:role with the hand-off argument",
			ep.res, ep.kind, len(origins), role, strings.Join(origins, ", "), role)
	}
}
