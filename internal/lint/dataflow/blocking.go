package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The blocking-edge vocabulary waitcycle's table speaks: a stable
// identity for the resource an operation names (ResourceIdent, shared by
// every origin table), parameter resolution in receiver-first indexing,
// and the classification of an operation as a blocking edge (it can park
// the goroutine) or its releasing counterpart:
//
//	send   — ch <- v           released by recv or close of ch
//	recv   — <-ch              released by send or close of ch
//	park   — <-w.C()           an eventcount park, released by w.Signal()
//	wait   — wg.Wait()         released by wg.Done()
//
// ringq push/pop waits appear as parks: the queues expose only
// non-blocking TryPush/TryPop, and every blocking loop around them parks
// on a ringq.Waiter — so the waiter carries the wait-for edge the queue
// itself cannot.

// Blocking-edge modes.
const (
	ModeSend   = "send"   // channel send
	ModeRecv   = "recv"   // channel receive
	ModeClose  = "close"  // channel close (release only)
	ModePark   = "park"   // receive from a ringq.Waiter's wake channel
	ModeSignal = "signal" // ringq.Waiter.Signal (release only)
	ModeWait   = "wait"   // sync.WaitGroup.Wait
	ModeDone   = "done"   // sync.WaitGroup.Done (release only)
)

// BlockingMode reports whether ops of the given mode can park the
// goroutine (as opposed to only releasing a parked peer).
func BlockingMode(mode string) bool {
	switch mode {
	case ModeSend, ModeRecv, ModePark, ModeWait:
		return true
	}
	return false
}

// Releases reports whether an op of mode rel on the same resource can
// unblock an op of blocking mode blk.
func Releases(blk, rel string) bool {
	switch blk {
	case ModeSend:
		return rel == ModeRecv || rel == ModeClose
	case ModeRecv:
		return rel == ModeSend || rel == ModeClose
	case ModePark:
		return rel == ModeSignal
	case ModeWait:
		return rel == ModeDone
	}
	return false
}

// ---- shared parameter helpers (receiver-first indexing) ----

// ParamObjects returns fn's parameter objects, receiver first — the
// combined indexing every param-effect summary uses.
func ParamObjects(fn *Func) []*types.Var {
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// CallArgs returns the call's argument expressions receiver-first, to
// match ParamObjects' indexing. Plain functions have no receiver slot;
// methods called as expressions (T.M(recv, …)) already pass the
// receiver as Args[0].
func CallArgs(g *Graph, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := g.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	if out == nil {
		return call.Args
	}
	return append(out, call.Args...)
}

// ParamIndex resolves e to one of params (unwrapping parens and a
// leading &), returning its receiver-first index.
func ParamIndex(g *Graph, e ast.Expr, params []*types.Var) (int, bool) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := g.Info.Uses[id]
	for i, p := range params {
		if p == obj {
			return i, true
		}
	}
	return 0, false
}

// GlobalVar reports whether v is a package-level variable.
func GlobalVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// ---- resource identity ----

// ResourceIdent names the synchronization resource (or memory
// location) an expression denotes, at the granularity origin
// attribution is meaningful for: struct fields by declared type
// ("(pkg.T).f"), package-level vars ("pkg.v"), locals by definition
// site ("local v@file.go:12"). Parameters resolve to "" with their
// receiver-first index returned instead — param-indexed effects belong
// in the caller's summary, and naming them here would double-count.
// Untrackable expressions return ("", -1).
func ResourceIdent(g *Graph, params []*types.Var, e ast.Expr) (string, int) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		sel, ok := g.Info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			// Qualified identifier pkg.Var.
			if v, ok := g.Info.Uses[x.Sel].(*types.Var); ok && GlobalVar(v) {
				return v.Pkg().Path() + "." + v.Name(), -1
			}
			return "", -1
		}
		if name := FieldIdent(g, x); name != "" {
			return name, -1
		}
		return "", -1
	case *ast.Ident:
		v, ok := g.Info.Uses[x].(*types.Var)
		if !ok || v.IsField() {
			return "", -1
		}
		if GlobalVar(v) {
			return v.Pkg().Path() + "." + v.Name(), -1
		}
		for i, p := range params {
			if p == v {
				return "", i
			}
		}
		return "local " + v.Name() + "@" + g.PosString(v.Pos()), -1
	}
	return "", -1
}

// FieldIdent names a field selection by its declaring type:
// "(pkgpath.Type).field". Generic instantiations normalize to their
// origin type. Returns "" for selections that are not struct fields or
// whose owner has no package.
func FieldIdent(g *Graph, x *ast.SelectorExpr) string {
	sel, ok := g.Info.Selections[x]
	if !ok || sel.Kind() != types.FieldVal {
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
}

// ---- blocking-op classification ----

// WaiterPark matches a receive from a ringq.Waiter's wake channel —
// `<-w.C()` — returning the waiter expression. The C() indirection is
// how every park in the tree is written; a waiter channel stored in a
// local first is matched by the caller resolving the local's
// definition.
func WaiterPark(g *Graph, recv *ast.UnaryExpr) (ast.Expr, bool) {
	if recv.Op != token.ARROW {
		return nil, false
	}
	return WaiterC(g, recv.X)
}

// WaiterC matches a `w.C()` call on a ringq.Waiter, returning w.
func WaiterC(g *Graph, e ast.Expr) (ast.Expr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "C" {
		return nil, false
	}
	selection, ok := g.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, false
	}
	if !IsNamedType(selection.Recv(), "cyclojoin/internal/ringq", "Waiter") {
		return nil, false
	}
	return sel.X, true
}

// SyncCall classifies a call as a Waiter signal or a WaitGroup
// wait/done, returning the resource expression and the op mode.
func SyncCall(g *Graph, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	selection, ok := g.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	switch {
	case sel.Sel.Name == "Signal" && IsNamedType(selection.Recv(), "cyclojoin/internal/ringq", "Waiter"):
		return sel.X, ModeSignal, true
	case sel.Sel.Name == "Wait" && IsNamedType(selection.Recv(), "sync", "WaitGroup"):
		return sel.X, ModeWait, true
	case sel.Sel.Name == "Done" && IsNamedType(selection.Recv(), "sync", "WaitGroup"):
		return sel.X, ModeDone, true
	}
	return nil, "", false
}
