package typestate

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"cyclojoin/internal/lint/dataflow"
)

// stmt simulates s along the fall-through path; true means control
// cannot fall past it.
func (e *engine) stmt(s ast.Stmt, st state) bool {
	switch x := s.(type) {
	case *ast.BlockStmt:
		return e.stmtList(x.List, st)
	case *ast.ExprStmt:
		e.scan(x.X, st, x)
		call, ok := x.X.(*ast.CallExpr)
		return ok && e.noReturn(call)
	case *ast.AssignStmt:
		e.bind(x.Lhs, x.Rhs, st, x)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					e.bind(idents(vs.Names), vs.Values, st, x)
				}
			}
		}
	case *ast.SendStmt:
		e.send(x, st)
	case *ast.DeferStmt:
		e.deferred(x, st)
	case *ast.GoStmt:
		e.scan(x.Call, st, x)
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			if obj := e.trackedIdent(res); obj != nil {
				// Returning the object hands the obligation to the caller.
				st[obj] = fact{untracked, x.Pos()}
				continue
			}
			e.scan(res, st, x)
		}
		e.reportHeld(st, x.Pos(), x)
		return true
	case *ast.IfStmt:
		e.stmt(x.Init, st)
		e.scan(x.Cond, st, x)
		thenSt, elseSt := maps.Clone(st), maps.Clone(st)
		if obj, thenHolds := e.guard(x.Cond); obj != nil {
			// The branch where the acquire failed holds nothing.
			failed := elseSt
			if !thenHolds {
				failed = thenSt
			}
			failed[obj] = fact{untracked, x.Cond.Pos()}
		}
		thenTerm := e.stmt(x.Body, thenSt)
		elseTerm := x.Else != nil && e.stmt(x.Else, elseSt)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			st.reset(elseSt)
		case elseTerm:
			st.reset(thenSt)
		default:
			st.reset(thenSt)
			st.merge(elseSt)
		}
	case *ast.ForStmt:
		e.stmt(x.Init, st)
		e.scan(x.Cond, st, x)
		e.loopBody(x.Body, st)
		// `for { … }` with no break never falls through.
		return x.Cond == nil && !hasBreak(x.Body)
	case *ast.RangeStmt:
		if e.reaps(x.X) {
			e.reap(st, x.X.Pos())
		}
		e.scan(x.X, st, x)
		e.loopBody(x.Body, st)
	case *ast.SwitchStmt:
		e.stmt(x.Init, st)
		e.scan(x.Tag, st, x)
		return e.clauses(x.Body, st, hasDefault(x.Body))
	case *ast.TypeSwitchStmt:
		e.stmt(x.Init, st)
		return e.clauses(x.Body, st, hasDefault(x.Body))
	case *ast.SelectStmt:
		// A select always takes exactly one of its clauses.
		return e.clauses(x.Body, st, true)
	case *ast.LabeledStmt:
		return e.stmt(x.Stmt, st)
	case *ast.BranchStmt:
		// break and continue leave this walk; the path ends here.
		return true
	}
	return false
}

func (e *engine) stmtList(list []ast.Stmt, st state) bool {
	for _, s := range list {
		if e.stmt(s, st) {
			return true
		}
	}
	return false
}

// loopBody simulates one iteration and reports objects acquired in the
// body that are still held at the back edge: the next iteration
// re-acquires over them. The state after the loop merges the body's
// with the zero-iteration path.
func (e *engine) loopBody(body *ast.BlockStmt, st state) {
	bodySt := maps.Clone(st)
	if !e.stmt(body, bodySt) {
		for obj, v := range bodySt {
			if v.s != held || st[obj].s == held {
				continue // only objects acquired by this iteration
			}
			tr := e.objs[obj]
			if tr == nil || tr.acquire < body.Pos() || body.End() <= tr.acquire {
				continue
			}
			e.report(obj, tr.acquire, nil, e.t.Msg.BackEdge, obj.Name())
			// One report per acquire site; don't cascade to the exits.
			bodySt[obj] = fact{untracked, v.pos}
		}
	}
	st.merge(bodySt)
}

// clauses simulates a switch or select body: each clause runs from the
// incoming state and the fall-through states merge. exhaustive means
// one clause always runs.
func (e *engine) clauses(body *ast.BlockStmt, st state, exhaustive bool) bool {
	pre := maps.Clone(st)
	first := true
	for _, cl := range body.List {
		clSt := maps.Clone(pre)
		var term bool
		switch cc := cl.(type) {
		case *ast.CaseClause:
			term = e.stmtList(cc.Body, clSt)
		case *ast.CommClause:
			e.stmt(cc.Comm, clSt)
			term = e.stmtList(cc.Body, clSt)
		}
		if term {
			continue
		}
		if first {
			st.reset(clSt)
			first = false
		} else {
			st.merge(clSt)
		}
	}
	if !exhaustive {
		// The no-match path carries the incoming state through.
		if first {
			st.reset(pre)
		} else {
			st.merge(pre)
		}
		return false
	}
	// Control falls past only through a clause that falls through.
	return first
}

// bind handles `:=`, `=` and `var` alike: an acquire makes its target
// held, any other value ends tracking of the target, and a tracked
// object on the right is aliased away.
func (e *engine) bind(lhs, rhs []ast.Expr, st state, at ast.Stmt) {
	for i, l := range lhs {
		var r ast.Expr
		slot := 0
		switch {
		case len(lhs) == len(rhs):
			r = rhs[i]
		case len(rhs) == 1:
			r, slot = rhs[0], i
		default:
			continue
		}
		if obj := e.lhsObj(l); obj != nil {
			if ok, home := e.acquire(r, slot); ok && !e.escaped[obj] {
				// The acquire consumes the right-hand side; only its
				// arguments remain to scan, before the target is held, so
				// `pd = sh.Next(pd, p)` releases the old value and holds
				// the new one.
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					for _, a := range call.Args {
						e.scan(a, st, at)
					}
				}
				e.objs[obj] = &tracked{acquire: r.Pos(), home: home}
				st[obj] = fact{held, r.Pos()}
				if len(lhs) != len(rhs) {
					e.pairGuards(lhs, obj)
				}
				if len(rhs) == 1 {
					return
				}
				continue
			}
			if tr := e.objs[obj]; tr != nil && st[obj].s == held {
				e.report(obj, at.Pos(), at, e.t.Msg.Overwrite, obj.Name(), e.pass.Fset.Position(tr.acquire))
			}
			st[obj] = fact{untracked, at.Pos()}
		}
		if obj := e.trackedIdent(r); obj != nil {
			if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
				continue // `_ = x` discards the value; custody is unchanged
			}
			// Aliased into another name or stored: custody follows the
			// new owner.
			st[obj] = fact{untracked, at.Pos()}
			continue
		}
		e.scan(r, st, at)
	}
	// Field and index stores may name tracked objects on the left too.
	for _, l := range lhs {
		if _, ok := l.(*ast.Ident); !ok {
			e.scan(l, st, at)
		}
	}
}

// pairGuards remembers the guarding companions bound with obj.
func (e *engine) pairGuards(lhs []ast.Expr, obj types.Object) {
	if e.t.Guard == nil {
		return
	}
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok {
			if o := e.objOf(id); o != nil && o != obj && e.t.Guard(o.Type()) {
				e.guards[o] = obj
			}
		}
	}
}

// guard recognizes a test of an acquire's companion — `err == nil`,
// `err != nil`, `ok`, `!ok` — returning the guarded object and whether
// the then branch is the one where the acquire succeeded.
func (e *engine) guard(cond ast.Expr) (types.Object, bool) {
	x, succeeded := ast.Unparen(cond), true
	switch c := x.(type) {
	case *ast.UnaryExpr:
		if c.Op != token.NOT {
			return nil, false
		}
		x, succeeded = ast.Unparen(c.X), false
	case *ast.BinaryExpr:
		if c.Op != token.EQL && c.Op != token.NEQ {
			return nil, false
		}
		x = c.X
		other := c.Y
		if e.isNil(x) {
			x, other = other, x
		}
		if !e.isNil(other) {
			return nil, false
		}
		succeeded = c.Op == token.EQL
	}
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := e.guards[e.objOf(id)]
	return obj, obj != nil && succeeded
}

func (e *engine) isNil(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := e.pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// send handles `ch <- x`: the table's release, or a handoff to whoever
// receives.
func (e *engine) send(x *ast.SendStmt, st state) {
	obj := e.trackedIdent(x.Value)
	switch {
	case obj == nil:
		e.scan(x.Value, st, x)
	case e.t.Release(e.pass, x) != nil:
		e.release(obj, x.Pos(), x, st)
	default:
		st[obj] = fact{untracked, x.Pos()}
	}
}

// release moves obj to released, reporting a second release on the
// same path.
func (e *engine) release(obj types.Object, at token.Pos, node ast.Node, st state) {
	if prev, ok := st[obj]; ok && prev.s == released {
		e.report(obj, at, node, e.t.Msg.DoubleRelease, obj.Name(), e.pass.Fset.Position(prev.pos))
	}
	st[obj] = fact{released, at}
}

// deferred applies a deferred statement's releases immediately, which
// is sound for leak checking: they cover every return after it. In a
// deferred closure only its sends and the table's releases count.
func (e *engine) deferred(x *ast.DeferStmt, st state) {
	fl, ok := x.Call.Fun.(*ast.FuncLit)
	if !ok {
		e.scan(x.Call, st, x)
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch y := n.(type) {
		case *ast.SendStmt:
			e.send(y, st)
		case *ast.CallExpr:
			if obj := e.trackedIdent(e.t.Release(e.pass, y)); obj != nil {
				e.release(obj, y.Pos(), x, st)
			}
		}
		return true
	})
}

// reaps reports a receive from x hands posted objects back.
func (e *engine) reaps(x ast.Expr) bool {
	return e.t.Reap != nil && e.t.Reap(e.pass.TypesInfo.TypeOf(x))
}

// reap ends tracking of every posted object: which one a given
// completion covers is not statically knowable.
func (e *engine) reap(st state, at token.Pos) {
	for obj, v := range st {
		if v.s == posted {
			st[obj] = fact{untracked, at}
			// A merge would resurrect `posted` when the reap sits in a
			// loop body; once reaped anywhere, the object is untracked.
			delete(e.objs, obj)
		}
	}
}

// scan classifies every use of a tracked object inside x: releases,
// posts and method calls per the table, comparisons and field reads as
// plain uses, everything else as a custody handoff that ends tracking
// on this path.
func (e *engine) scan(x ast.Expr, st state, at ast.Stmt) {
	switch y := x.(type) {
	case *ast.Ident:
		if obj := e.trackedIdent(y); obj != nil {
			st[obj] = fact{untracked, y.Pos()}
		}
	case *ast.CallExpr:
		e.call(y, st, at)
	case *ast.UnaryExpr:
		if obj := e.trackedIdent(y.X); obj != nil && y.Op == token.AND {
			st[obj] = fact{untracked, y.Pos()}
			return
		}
		if y.Op == token.ARROW && e.reaps(y.X) {
			e.reap(st, y.Pos())
		}
		e.scan(y.X, st, at)
	case *ast.BinaryExpr:
		// Comparisons (buf == nil) don't move custody.
		for _, z := range []ast.Expr{y.X, y.Y} {
			if e.trackedIdent(z) == nil {
				e.scan(z, st, at)
			}
		}
	case *ast.ParenExpr:
		e.scan(y.X, st, at)
	case *ast.StarExpr:
		e.scan(y.X, st, at)
	case *ast.SelectorExpr:
		if obj := e.trackedIdent(y.X); obj != nil {
			// A field read is a plain use; a method value escapes.
			if sel, ok := e.pass.TypesInfo.Selections[y]; !ok || sel.Kind() != types.FieldVal {
				st[obj] = fact{untracked, y.Pos()}
			}
			return
		}
		e.scan(y.X, st, at)
	case *ast.IndexExpr:
		e.scan(y.X, st, at)
		e.scan(y.Index, st, at)
	case *ast.SliceExpr:
		e.scan(y.X, st, at)
	case *ast.CompositeLit:
		for _, elt := range y.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if obj := e.trackedIdent(elt); obj != nil {
				// Stored in a struct, slice or map: the container owns it.
				st[obj] = fact{untracked, elt.Pos()}
				continue
			}
			e.scan(elt, st, at)
		}
	case *ast.TypeAssertExpr:
		e.scan(y.X, st, at)
	case *ast.FuncLit:
		// The closure may release later; tracking ends for every object
		// it captures.
		ast.Inspect(y.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := e.trackedIdent(id); obj != nil {
					st[obj] = fact{untracked, id.Pos()}
				}
			}
			return true
		})
	}
}

// call applies one call's custody semantics.
func (e *engine) call(call *ast.CallExpr, st state, at ast.Stmt) {
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		// An immediately invoked (or go'd) literal: its captures escape.
		e.scan(fl, st, at)
	}
	if obj := e.trackedIdent(e.t.Release(e.pass, call)); obj != nil {
		e.release(obj, call.Pos(), at, st)
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := e.trackedIdent(sel.X); obj != nil {
			if _, isMethod := e.pass.TypesInfo.Selections[sel]; isMethod {
				// A method on the object itself only touches its memory —
				// unless the transport owns that memory right now.
				if prev := st[obj]; prev.s == posted && e.t.Access[sel.Sel.Name] {
					e.report(obj, call.Pos(), at, e.t.Msg.Access, obj.Name(), sel.Sel.Name, e.pass.Fset.Position(prev.pos))
				}
				for _, a := range call.Args {
					e.scan(a, st, at)
				}
				return
			}
		}
	}
	post := e.t.Post != nil && e.t.Post(e.pass, call)
	ce := e.calleeEffect(call)
	for ai, arg := range dataflow.CallArgs(e.g, call) {
		obj := e.trackedIdent(arg)
		switch {
		case obj == nil:
			e.scan(arg, st, at)
		case post && ai > 0 && e.t.Reap != nil:
			if prev, ok := st[obj]; ok && prev.s == posted {
				e.report(obj, call.Pos(), at, e.t.Msg.DoublePost, obj.Name(), e.pass.Fset.Position(prev.pos))
			}
			st[obj] = fact{posted, call.Pos()}
		case post && ai > 0:
			// The transport holds it until completion; the reaper owns
			// what comes next.
			st[obj] = fact{untracked, call.Pos()}
		case ce != nil && slices.Contains(ce.ParamRelease, ai):
			e.release(obj, call.Pos(), at, st)
		case ce != nil && slices.Contains(ce.ParamBorrowed, ai):
			// The callee only borrows it; custody stays here.
		default:
			// Unknown custody: the callee owns it now.
			st[obj] = fact{untracked, call.Pos()}
		}
	}
}

// noReturn reports calls that never return control.
func (e *engine) noReturn(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, builtin := e.pass.TypesInfo.Uses[fun].(*types.Builtin)
		return builtin && fun.Name == "panic"
	case *ast.SelectorExpr:
		pkgID, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := e.pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return false
		}
		name := fun.Sel.Name
		switch pn.Imported().Path() {
		case "os":
			return name == "Exit"
		case "log":
			return strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")
		}
	}
	return false
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// hasBreak reports whether body may break out of its loop: an unlabeled
// break not bound by a nested for/switch/select, or any labeled break
// (conservatively, wherever it points).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BranchStmt:
			found = found || x.Tok == token.BREAK
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				if b, ok := m.(*ast.BranchStmt); ok && b.Tok == token.BREAK && b.Label != nil {
					found = true
				}
				return true
			})
			return false
		}
		return true
	})
	return found
}
