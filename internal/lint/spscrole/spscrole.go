// Package spscrole enforces the single-producer/single-consumer role
// contract on ringq.SPSC queues, using goroutine-origin analysis.
//
// A ringq.SPSC ring is wait-free precisely because exactly one goroutine
// advances the head and exactly one advances the tail. The type system
// cannot say which goroutine that is, so the discipline lives in code
// review — until a refactor quietly adds a second pusher and the ring
// corrupts under load. spscrole makes the discipline checkable: every
// `go` statement is a labeled origin ("go node.go:396"), origins
// propagate through the static call graph (dataflow.Origins), and every
// push (TryPush/Push) or pop (TryPop/Pop) endpoint is attributed to the
// origin set of the function executing it — through helpers that take
// the queue as a parameter, and across packages via per-function fact
// summaries. A queue field with two distinct push origins (or two pop
// origins) is a diagnostic.
//
// Two origins of the same endpoint are not always a bug: mutually
// exclusive transport modes may each own a loop, or a drain path may
// run after the producer goroutine has provably exited. Those sanctioned
// hand-offs are annotated at the operation (or on the function's doc
// comment) with the reason:
//
//	//cyclolint:role send loop and write-mode send loop are mutually exclusive per ring
//
// In-package _test.go files are excluded from the analysis: the role
// contract describes the production goroutine topology, and test
// harnesses launching entry points from ad-hoc goroutines would
// otherwise hang phantom origins on every endpoint they exercise.
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

// ringqPkg declares SPSC; its own implementation is exempt.
const ringqPkg = "cyclojoin/internal/ringq"

// Analyzer flags SPSC queues with more than one producer or consumer
// goroutine origin.
var Analyzer = &analysis.Analyzer{
	Name:      "spscrole",
	Doc:       "a ringq.SPSC endpoint (push or pop) must be reachable from a single goroutine origin; annotate //cyclolint:role for sanctioned hand-offs",
	Version:   "1",
	UsesFacts: true,
	Run:       run,
}

const (
	opPush = "push"
	opPop  = "pop"
)

// attrOp is one push/pop operation attributed to an origin.
type attrOp struct {
	field  string // queue identity
	kind   string // opPush or opPop
	origin string // goroutine-origin label
	pos    token.Pos
	site   string // rendered pos, for messages and facts
}

type checker struct {
	pass     *analysis.Pass
	g        *dataflow.Graph
	origins  *dataflow.Origins
	imported map[string]*Summary
	sums     map[string]*Summary // by FuncKey, this package
	ops      []attrOp
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == ringqPkg {
		// The ring's own methods are the intrinsics; analyzing their
		// bodies would attribute head/tail stores to phantom origins.
		return nil
	}
	// The role contract is a property of the production goroutine
	// topology: test harnesses launch entry points from ad-hoc
	// goroutines (and drive queues directly), which would hang phantom
	// origins on every endpoint they reach. In-package _test.go files
	// are therefore excluded from the graph — launch sites, operations
	// and call edges alike.
	var files []*ast.File
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	c := &checker{
		pass:     pass,
		g:        dataflow.NewGraph(pass.Fset, pass.Pkg, pass.TypesInfo, files),
		imported: make(map[string]*Summary),
		sums:     make(map[string]*Summary),
	}
	for _, imp := range pass.Pkg.Imports() {
		for k, s := range DecodeRoleFacts(pass.ImportedFacts(imp.Path())) {
			c.imported[k] = s
		}
	}
	c.origins = dataflow.NewOrigins(c.g)
	c.solveParams()
	c.attribute()
	pass.Export(EncodeRoleFacts(c.sums))
	c.report()
	return nil
}

// ---- phase A: per-function param effects (fixpoint) ----

// solveParams computes, for every function in the package, which of its
// parameters (receiver-first indexing) it transitively pushes to or pops
// from.
func (c *checker) solveParams() {
	for _, fn := range c.g.All() {
		c.sums[fn.Key()] = &Summary{Key: fn.Key()}
	}
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fn := range c.g.All() {
			if c.paramPass(fn) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (c *checker) paramPass(fn *dataflow.Func) bool {
	sum := c.sums[fn.Key()]
	params := dataflow.ParamObjects(fn)
	changed := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		eff := c.callEffect(call)
		if eff == nil {
			return true
		}
		args := dataflow.CallArgs(c.g, call)
		for _, i := range eff.ParamPush {
			if i < len(args) {
				if j, ok := dataflow.ParamIndex(c.g, args[i], params); ok && addIndex(&sum.ParamPush, j) {
					changed = true
				}
			}
		}
		for _, i := range eff.ParamPop {
			if i < len(args) {
				if j, ok := dataflow.ParamIndex(c.g, args[i], params); ok && addIndex(&sum.ParamPop, j) {
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// callEffect resolves what a call does to its arguments: the SPSC
// intrinsics push/pop their receiver (index 0); other static callees
// contribute their computed (or imported) summaries.
func (c *checker) callEffect(call *ast.CallExpr) *Summary {
	if kind, ok := c.intrinsic(call); ok {
		if kind == opPush {
			return &Summary{ParamPush: []int{0}}
		}
		return &Summary{ParamPop: []int{0}}
	}
	callee := c.g.StaticCallee(call)
	if callee == nil {
		return nil
	}
	key := dataflow.FuncKey(callee)
	if s, ok := c.sums[key]; ok {
		return s
	}
	return c.imported[key]
}

// intrinsic recognizes a direct SPSC push/pop method call.
func (c *checker) intrinsic(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	var kind string
	switch sel.Sel.Name {
	case "TryPush", "Push":
		kind = opPush
	case "TryPop", "Pop":
		kind = opPop
	default:
		return "", false
	}
	selection, ok := c.g.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	if !dataflow.IsNamedType(selection.Recv(), ringqPkg, "SPSC") {
		return "", false
	}
	return kind, true
}

// ---- phase B: attribution ----

// attribute walks every function once, attributing each field-identified
// operation to the goroutine origins of the code performing it, and
// collecting pending ops for functions with no in-package callers.
func (c *checker) attribute() {
	for _, fn := range c.g.All() {
		if analysis.FuncHasDirective(fn.Decl, "role") {
			continue
		}
		var pending []FieldOp
		c.walkOps(fn, fn.Decl.Body, "", &pending)
		if !c.origins.HasEvidence(fn) && len(pending) > 0 {
			// No caller in this package: the real execution context is in
			// an importing package, which attributes these through facts.
			c.sums[fn.Key()].Pending = pending
		}
	}
}

// walkOps traverses n. label == "" means code runs under fn's own origin
// set; a non-empty label pins execution to that launch site (inside a
// go'd func literal or a `go f(...)` statement).
func (c *checker) walkOps(fn *dataflow.Func, n ast.Node, label string, pending *[]FieldOp) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			l := c.origins.GoLabel(x)
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				c.walkOps(fn, lit.Body, l, pending)
				for _, a := range x.Call.Args {
					c.walkOps(fn, a, label, pending)
				}
				return false
			}
			// `go f(args)`: f's own ops are attributed at f's declaration
			// (the launch adds l to f's origins); param-ops on the args
			// execute inside the launched goroutine.
			c.opsAt(fn, x.Call, []string{l}, pending)
			for _, a := range x.Call.Args {
				c.walkOps(fn, a, label, pending)
			}
			return false
		case *ast.CallExpr:
			ctx := []string{label}
			if label == "" {
				ctx = c.origins.Of(fn)
			}
			c.opsAt(fn, x, ctx, pending)
			return true
		}
		return true
	})
}

// opsAt attributes the field-identified push/pop effects of one call
// under the given origin context.
func (c *checker) opsAt(fn *dataflow.Func, call *ast.CallExpr, ctx []string, pending *[]FieldOp) {
	eff := c.callEffect(call)
	var calleePending []FieldOp
	if callee := c.g.StaticCallee(call); callee != nil {
		if s := c.imported[dataflow.FuncKey(callee)]; s != nil {
			calleePending = s.Pending
		}
	}
	if eff == nil && len(calleePending) == 0 {
		return
	}
	if c.excused(call) {
		return
	}
	site := c.g.PosString(call.Pos())
	emit := func(field, kind string) {
		if field == "" {
			return
		}
		if !c.origins.HasEvidence(fn) && len(ctx) == 1 && ctx[0] == dataflow.EntryOrigin {
			*pending = append(*pending, FieldOp{Field: field, Kind: kind, Site: site})
		}
		for _, origin := range ctx {
			c.ops = append(c.ops, attrOp{field: field, kind: kind, origin: origin, pos: call.Pos(), site: site})
		}
	}
	if eff != nil {
		args := dataflow.CallArgs(c.g, call)
		for _, i := range eff.ParamPush {
			if i < len(args) {
				emit(c.fieldIdent(fn, args[i]), opPush)
			}
		}
		for _, i := range eff.ParamPop {
			if i < len(args) {
				emit(c.fieldIdent(fn, args[i]), opPop)
			}
		}
	}
	// An imported callee with no execution evidence in its home package:
	// this call site is where its queue ops meet a real origin.
	for _, p := range calleePending {
		if !c.origins.HasEvidence(fn) && len(ctx) == 1 && ctx[0] == dataflow.EntryOrigin {
			*pending = append(*pending, p)
		}
		for _, origin := range ctx {
			c.ops = append(c.ops, attrOp{field: p.Field, kind: p.Kind, origin: origin, pos: call.Pos(), site: site})
		}
	}
}

// excused reports whether the op site carries a //cyclolint:role
// directive (on the line or the line above).
func (c *checker) excused(call *ast.CallExpr) bool {
	file := c.pass.File(call.Pos())
	return file != nil && c.pass.HasDirective(file, call, "role")
}

// fieldIdent names the queue a receiver/argument expression denotes, at
// the granularity origins are meaningful for: struct fields by declared
// type ("(pkg.T).q"), package-level vars ("pkg.q"), locals by definition
// site. Parameters return "" here — phase A already lifted them into the
// caller's summary, so attributing them at this site would double-count.
func (c *checker) fieldIdent(fn *dataflow.Func, e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		sel, ok := c.g.Info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			// Qualified identifier pkg.Var.
			if v, ok := c.g.Info.Uses[x.Sel].(*types.Var); ok && dataflow.GlobalVar(v) {
				return v.Pkg().Path() + "." + v.Name()
			}
			return ""
		}
		recv := sel.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return ""
		}
		if orig := named.Origin(); orig != nil {
			named = orig
		}
		obj := named.Obj()
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		return "(" + obj.Pkg().Path() + "." + obj.Name() + ")." + x.Sel.Name
	case *ast.Ident:
		v, ok := c.g.Info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if dataflow.GlobalVar(v) {
			return v.Pkg().Path() + "." + v.Name()
		}
		for _, p := range dataflow.ParamObjects(fn) {
			if p == v {
				return "" // phase A's job
			}
		}
		return "local " + v.Name() + "@" + c.g.PosString(v.Pos())
	}
	return ""
}

// ---- reporting ----

// endpoint groups the attributed ops of one (queue, kind) pair.
type endpoint struct {
	field, kind string
	// byOrigin maps origin label → positionally first op.
	byOrigin map[string]attrOp
	firstPos token.Pos
}

func (c *checker) report() {
	eps := make(map[string]*endpoint)
	var keys []string
	for _, op := range c.ops {
		k := op.field + "\x00" + op.kind
		ep := eps[k]
		if ep == nil {
			ep = &endpoint{field: op.field, kind: op.kind, byOrigin: make(map[string]attrOp), firstPos: op.pos}
			eps[k] = ep
			keys = append(keys, k)
		}
		if prev, ok := ep.byOrigin[op.origin]; !ok || op.pos < prev.pos {
			ep.byOrigin[op.origin] = op
		}
		if op.pos < ep.firstPos {
			ep.firstPos = op.pos
		}
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
		parts := make([]string, len(origins))
		for i, o := range origins {
			parts[i] = o + " (at " + ep.byOrigin[o].site + ")"
		}
		role := "producer"
		if ep.kind == opPop {
			role = "consumer"
		}
		c.pass.Reportf(ep.firstPos,
			"SPSC %s %s has %d %s origins: %s; the ring is wait-free only with a single %s — annotate //cyclolint:role with the hand-off argument",
			ep.field, ep.kind, len(origins), role, strings.Join(parts, ", "), role)
	}
}

// ---- shared helpers ----

// addIndex inserts i into the sorted set s, reporting growth.
func addIndex(s *[]int, i int) bool {
	for _, x := range *s {
		if x == i {
			return false
		}
	}
	*s = append(*s, i)
	sort.Ints(*s)
	return true
}
