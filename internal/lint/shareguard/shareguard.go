// Package shareguard is a compositional static data-race detector in the
// RacerD style: a table over the dataflow origin engine.
//
// For every field/global memory location a function touches it records a
// guarded access: read or write, the lock-class set held at the access
// (reusing lockorder's class naming and held-stack walk), and whether the
// access is atomic (sync/atomic functions; fields of sync/atomic types
// are internally synchronized and skipped). The engine attributes the
// accesses to goroutine origins — through `go` launches and, across
// packages, through the facts — and adds to each the lock classes held
// at every call of its function. A diagnostic fires when one location
// is reachable from two or more origins with at least one plain
// (non-atomic) write and no common guard between the conflicting
// accesses: a lock class held at both, exclusively at one of them at
// least — two RLock holders of one RWMutex do not exclude each other.
//
// Three happens-before/ownership arguments silence an access without a
// lock:
//
//   - ownership: accesses through a local whose every definition is a
//     fresh value (allocation, call result, literal, channel receive) are
//     goroutine-local until published — the producer filling a chunk it
//     just allocated does not race the consumer that pops it later;
//   - pre-launch: accesses positioned before the function's first
//     (transitive) goroutine launch, in functions reachable only from
//     entry code that has not launched yet, happen-before every origin —
//     the single-assignment-before-`go` configuration pattern;
//   - frozen publication: snapshots read via atomic Load land in owned
//     locals, and the publish itself is an atomic store (frozenpub owns
//     the after-publish mutation check).
//
// Sanctioned exceptions are annotated with the reason, either at the
// access, on the function's doc comment, or on the field declaration
// (which suppresses the location module-wide, riding the facts):
//
//	//cyclolint:sharesafe windowed counter: torn reads acceptable in telemetry
package shareguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow"
)

// ringqPkg's Waiter eventcount is internally synchronized storage.
const ringqPkg = "cyclojoin/internal/ringq"

// Analyzer reports shared locations with a plain write and no common
// guard across goroutine origins.
var Analyzer = &analysis.Analyzer{
	Name:      "shareguard",
	Doc:       "a location reachable from two goroutine origins with a plain write needs a common guard: one lock class, atomic discipline, or a happens-before; annotate //cyclolint:sharesafe for sanctioned ownership",
	UsesFacts: true,
	Run: func(pass *analysis.Pass) {
		c := &checker{
			owned:   make(map[*dataflow.Func]map[types.Object]bool),
			escaped: make(map[*dataflow.Func]map[types.Object]bool),
			through: make(map[ast.Expr]bool),
			skip:    make(map[ast.Node]bool),
			firstGo: make(map[*dataflow.Func]token.Pos),
		}
		dataflow.RunTable(pass, &dataflow.Table[access]{
			Directive: "sharesafe", Visit: c.visit, Pending: c.pending, Check: c.check,
		})
	},
}

// access is the table's payload. PreGo marks an access positioned before
// its function's first (transitive) goroutine launch: where the function
// runs only before any launch, the access happens-before every origin.
type access struct {
	Write  bool `json:"write,omitempty"`
	Atomic bool `json:"atomic,omitempty"`
	PreGo  bool `json:"preGo,omitempty"`
}

// noLaunch is the first-launch position of a function that never
// launches.
const noLaunch = token.Pos(1 << 40)

type checker struct {
	owned map[*dataflow.Func]map[types.Object]bool
	// escaped holds each function's variables reachable without a copy
	// (escapedVars); through marks the storage an access reaches through
	// (the m.s of m.s[i]), which a value copy shares.
	escaped map[*dataflow.Func]map[types.Object]bool
	through map[ast.Expr]bool
	// skip marks the location operands of atomic calls, already recorded
	// as atomic accesses.
	skip map[ast.Node]bool
	// firstGo is each function's first (transitive) launch position;
	// preCtx marks functions that only ever run before any launch.
	firstGo map[*dataflow.Func]token.Pos
	preCtx  map[*dataflow.Func]bool
}

// visit recognizes writes (assignments, ++/--), atomic accesses, and
// reads, notes each function's first launch, and marks the storage an
// access reaches through a dereference, an index, a slice or a range.
func (c *checker) visit(e *dataflow.Engine[access], ctx *dataflow.Ctx, n ast.Node) bool {
	switch x := n.(type) {
	case *ast.GoStmt:
		if ctx.Label == "" && x.Pos() < c.first(ctx.Fn) {
			c.firstGo[ctx.Fn] = x.Pos()
		}
	case *ast.CallExpr:
		if base, write, ok := atomicOp(e.G, x); ok {
			core := peelToCore(base)
			c.skip[core] = true
			c.emit(e, ctx, core, write, true)
		}
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
				c.emit(e, ctx, lhs, true, false)
			}
		}
	case *ast.IncDecStmt:
		c.emit(e, ctx, x.X, true, false)
	case *ast.StarExpr:
		c.through[peelToCore(x.X)] = true
	case *ast.IndexExpr:
		c.through[peelToCore(x.X)] = true
	case *ast.SliceExpr:
		c.through[peelToCore(x.X)] = true
	case *ast.RangeStmt:
		c.through[peelToCore(x.X)] = true
	case *ast.SelectorExpr, *ast.Ident:
		if !c.skip[x] {
			c.emit(e, ctx, x.(ast.Expr), false, false)
		}
	}
	return true
}

// emit records one access to a trackable location that is neither
// internally synchronized nor owned by the function.
func (c *checker) emit(e *dataflow.Engine[access], ctx *dataflow.Ctx, x ast.Expr, write, atomic bool) {
	core := peelToCore(x)
	if t := e.G.Info.TypeOf(core); t != nil {
		if isSyncPrimitive(t) {
			return
		}
		if _, isChan := t.Underlying().(*types.Chan); isChan && !write {
			return
		}
	}
	owned, ok := c.owned[ctx.Fn]
	if !ok {
		owned = ownedLocals(e.G, ctx.Fn)
		c.owned[ctx.Fn] = owned
	}
	if obj := rootObject(e.G, core); obj != nil && owned[obj] {
		return
	}
	if c.valueField(e.G, ctx.Fn, x, core) {
		return
	}
	e.Emit(ctx, x, core, x.Pos(), access{Write: write, Atomic: atomic, PreGo: true})
}

// valueField reports a direct access to a field of a struct-typed local
// or parameter that never escapes its function: the variable holds its
// own copy of the struct, so the field is the function's storage however
// the copy was made — the ownership argument of a fresh local. A copy
// shares what its pointer, slice and map fields reach, so an access
// through one (*m.p, m.s[i], a range over m.s) is not exempt, nor is a
// variable a function literal captures or whose address is taken.
func (c *checker) valueField(g *dataflow.Graph, fn *dataflow.Func, x, core ast.Expr) bool {
	sel, ok := core.(*ast.SelectorExpr)
	if !ok || ast.Unparen(x) != core || c.through[core] {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := g.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() || dataflow.GlobalVar(v) {
		return false
	}
	if _, isStruct := v.Type().Underlying().(*types.Struct); !isStruct {
		return false
	}
	esc, ok := c.escaped[fn]
	if !ok {
		esc = escapedVars(g, fn)
		c.escaped[fn] = esc
	}
	return !esc[v]
}

// escapedVars collects fn's variables another goroutine may reach
// without a copy: those a function literal uses, and those whose address
// is taken — explicitly, or by a pointer-receiver method call on the
// variable itself.
func escapedVars(g *dataflow.Graph, fn *dataflow.Func) map[types.Object]bool {
	esc := make(map[types.Object]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := g.Info.Uses[id].(*types.Var); ok && !v.IsField() {
						esc[v] = true
					}
				}
				return true
			})
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if obj := rootObject(g, x.X); obj != nil {
					esc[obj] = true
				}
			}
		case *ast.SelectorExpr:
			if s, ok := g.Info.Selections[x]; ok && s.Kind() == types.MethodVal {
				if _, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptrRecv {
					if _, ptrX := g.Info.TypeOf(x.X).Underlying().(*types.Pointer); !ptrX {
						if obj := rootObject(g, x.X); obj != nil {
							esc[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	return esc
}

// peelToCore unwraps parens, derefs, indexing and address-of down to the
// selector/identifier that names the accessed storage.
func peelToCore(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return e
			}
			e = x.X
		default:
			return e
		}
	}
}

// rootObject resolves the base variable an access chain hangs off:
// x in x.f[i].g. Nil when the chain roots at a call or literal.
func rootObject(g *dataflow.Graph, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			return g.Info.Uses[x]
		default:
			return nil
		}
	}
}

// ---- atomic access classification ----

var atomicWriteMethods = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true, "And": true, "Or": true,
}

// atomicOp recognizes a sync/atomic package-function call on a plain
// location (&x.f), returning the location expression and writeness.
// Method calls on sync/atomic types are not returned here: those fields
// are internally synchronized and skipped as locations entirely.
func atomicOp(g *dataflow.Graph, call *ast.CallExpr) (ast.Expr, bool, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false, false
	}
	obj, ok := g.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return nil, false, false
	}
	if _, isSel := g.Info.Selections[sel]; isSel {
		return nil, false, false // a method on an atomic type, not atomic.F
	}
	name := sel.Sel.Name
	switch {
	case strings.HasPrefix(name, "Load"):
		return call.Args[0], false, true
	case strings.HasPrefix(name, "Store"), strings.HasPrefix(name, "Add"),
		strings.HasPrefix(name, "Swap"), strings.HasPrefix(name, "CompareAndSwap"),
		strings.HasPrefix(name, "And"), strings.HasPrefix(name, "Or"):
		return call.Args[0], true, true
	}
	return nil, false, false
}

// isSyncPrimitive reports whether t is internally synchronized storage:
// sync and sync/atomic types, and ringq's Waiter eventcount.
func isSyncPrimitive(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	case ringqPkg:
		return obj.Name() == "Waiter"
	}
	return false
}

// ---- ownership: fresh locals are goroutine-local ----

// ownedLocals computes the function's owned locals: every definition is a
// fresh value (allocation, composite literal, call result, channel
// receive, scalar expression) or another owned local. An assignment from
// a parameter, global, or field bans the local — it aliases shared state.
func ownedLocals(g *dataflow.Graph, fn *dataflow.Func) map[types.Object]bool {
	params := make(map[types.Object]bool)
	for _, p := range dataflow.ParamObjects(fn) {
		params[p] = true
	}
	type def struct {
		dep   types.Object
		fresh bool
	}
	defs := make(map[types.Object][]def)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := g.Info.Defs[id]
		if obj == nil {
			obj = g.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || params[v] || dataflow.GlobalVar(v) {
			return
		}
		dep, fresh := rhsClass(g, rhs, params)
		defs[v] = append(defs[v], def{dep: dep, fresh: fresh})
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					record(x.Lhs[i], x.Rhs[i])
				}
			} else if len(x.Rhs) == 1 {
				for _, lhs := range x.Lhs {
					record(lhs, x.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if len(x.Values) == 0 {
					record(name, nil) // zero value: fresh
				} else if i < len(x.Values) {
					record(name, x.Values[i])
				} else if len(x.Values) == 1 {
					record(name, x.Values[0])
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				if x.Key != nil {
					record(x.Key, x.X)
				}
				if x.Value != nil {
					record(x.Value, x.X)
				}
			}
		}
		return true
	})
	owned := make(map[types.Object]bool, len(defs))
	for v := range defs {
		owned[v] = true
	}
	for changed := true; changed; {
		changed = false
		for v, ds := range defs {
			if !owned[v] {
				continue
			}
			for _, d := range ds {
				if d.fresh || (d.dep != nil && owned[d.dep]) {
					continue
				}
				owned[v] = false
				changed = true
				break
			}
		}
	}
	return owned
}

// rhsClass classifies a definition's right-hand side: fresh (a value no
// other goroutine can reach yet), dependent on another local, or aliasing
// shared state (neither).
func rhsClass(g *dataflow.Graph, e ast.Expr, params map[types.Object]bool) (types.Object, bool) {
	if e == nil {
		return nil, true // zero value
	}
	e = ast.Unparen(e)
	if t := g.Info.TypeOf(e); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			// The channel value itself is shared plumbing, but holding it
			// does not alias element storage.
			return nil, true
		}
	}
	switch x := e.(type) {
	case *ast.CallExpr, *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit, *ast.BinaryExpr:
		return nil, true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return nil, true // ownership transfers with the element
		}
		return rhsClass(g, x.X, params)
	case *ast.StarExpr:
		return rhsClass(g, x.X, params)
	case *ast.IndexExpr:
		return rhsClass(g, x.X, params)
	case *ast.SliceExpr:
		return rhsClass(g, x.X, params)
	case *ast.TypeAssertExpr:
		return rhsClass(g, x.X, params)
	case *ast.Ident:
		obj := g.Info.Uses[x]
		switch o := obj.(type) {
		case *types.Const, *types.Nil:
			return nil, true
		case *types.Var:
			if !o.IsField() && !params[o] && !dataflow.GlobalVar(o) {
				return o, false
			}
		}
		return nil, false
	}
	return nil, false
}

// ---- pre-launch happens-before ----

func (c *checker) first(fn *dataflow.Func) token.Pos {
	if pos, ok := c.firstGo[fn]; ok {
		return pos
	}
	return noLaunch
}

// solve propagates launch positions up the call graph — a call to a
// function that (transitively) launches a goroutine is itself a launch
// point — and then marks the functions that only ever run before any
// launch: entry-only origins whose every in-package call site sits
// before its caller's first launch, in a caller that is pre-launch too.
func (c *checker) solve(e *dataflow.Engine[access]) {
	if c.preCtx != nil {
		return
	}
	for changed := true; changed; {
		changed = false
		for _, s := range e.Sites {
			if s.Callee != nil && c.first(s.Callee) != noLaunch && s.Pos < c.first(s.Caller) {
				c.firstGo[s.Caller] = s.Pos
				changed = true
			}
		}
	}
	c.preCtx = make(map[*dataflow.Func]bool)
	for _, fn := range e.G.All() {
		o := e.Origins.Of(fn)
		c.preCtx[fn] = len(o) == 1 && o[0] == dataflow.EntryOrigin
	}
	for changed := true; changed; {
		changed = false
		for _, s := range e.Sites {
			if s.Callee == nil || !c.preCtx[s.Callee] {
				continue
			}
			if s.Launch || s.Label != "" || !c.preCtx[s.Caller] || s.Pos >= c.first(s.Caller) {
				c.preCtx[s.Callee] = false
				changed = true
			}
		}
	}
}

// pending exports an access's pre-launch mark: before its function's
// first launch, the importing call site's happens-before applies.
func (c *checker) pending(e *dataflow.Engine[access], r *dataflow.Raw[access]) access {
	c.solve(e)
	p := r.P
	p.PreGo = p.PreGo && r.Pos < c.first(r.Fn)
	return p
}

// check drops the excused and the pre-launch accesses, which cannot
// race, and reports
// every location with a plain write and an access from another origin
// that share no guard.
func (c *checker) check(e *dataflow.Engine[access], attrs []dataflow.Attr[access]) {
	c.solve(e)
	byLoc := make(map[string][]dataflow.Attr[access])
	var locs []string
	for _, a := range attrs {
		if a.Safe || a.P.PreGo && a.Label == "" && c.preCtx[a.Fn] && a.Pos < c.first(a.Fn) {
			continue
		}
		if _, ok := byLoc[a.Res]; !ok {
			locs = append(locs, a.Res)
		}
		byLoc[a.Res] = append(byLoc[a.Res], a)
	}
	sort.Strings(locs)
	for _, loc := range locs {
		as := byLoc[loc]
		// A local is per-invocation storage: it only becomes shared when a
		// launched literal captures it, so at least one side of a conflict
		// must execute inside a launch — multi-origin fan-out of the
		// declaring function alone duplicates the same invocation-local
		// access, it does not share the variable.
		local := strings.HasPrefix(loc, "local ")
		conflict := make(map[int]bool)
		for i, w := range as {
			if !w.P.Write || w.P.Atomic {
				continue
			}
			for j, b := range as {
				if b.Origin != w.Origin && (!local || w.Label != "" || b.Label != "") &&
					!dataflow.Excludes(w.Held, b.Held) {
					conflict[i] = true
					conflict[j] = true
				}
			}
		}
		if len(conflict) == 0 {
			continue
		}
		byOrigin := make(map[string]dataflow.Attr[access])
		first := token.Pos(noLaunch)
		for i, a := range as {
			if !conflict[i] {
				continue
			}
			if prev, ok := byOrigin[a.Origin]; !ok || a.Pos < prev.Pos {
				byOrigin[a.Origin] = a
			}
			first = min(first, a.Pos)
		}
		origins := make([]string, 0, len(byOrigin))
		for o := range byOrigin {
			origins = append(origins, o)
		}
		sort.Strings(origins)
		for i, o := range origins {
			a := byOrigin[o]
			kind := "read"
			if a.P.Write {
				kind = "write"
			}
			if a.P.Atomic {
				kind = "atomic " + kind
			}
			origins[i] = o + " (" + kind + " at " + a.Site + ")"
		}
		e.Pass.Reportf(first,
			"%s has a plain write with no common guard across %d goroutine origins: %s; no shared lock class, consistent atomic use, or happens-before protects it — serialize the accesses or annotate //cyclolint:sharesafe with the ownership argument",
			loc, len(origins), strings.Join(origins, ", "))
	}
}
