package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The labeled walk: one source-order traversal of a function body that
// knows, at every node, which goroutine the code runs on, which lock
// classes are held, which select statement a communication belongs to,
// and whether a call is deferred. The origin engine (engine.go) and
// lockorder both walk with it.

// Held is one lock class held at a point of the walk.
type Held struct {
	// Class is the lock class (see LockCall).
	Class string
	// Shared marks an RLock acquisition: other readers of the mutex may
	// hold it at the same time.
	Shared bool
	// Pos is the acquisition.
	Pos token.Pos
}

// Ctx is where the labeled walk stands.
type Ctx struct {
	// Fn is the declared function being walked.
	Fn *Func
	// Label is "" while the code runs on Fn's own goroutines, or the
	// launch label ("go file.go:12") of the goroutine it runs on.
	Label string
	// Launch marks the call of a `go f(…)` statement, visited under the
	// launch label.
	Launch bool
	// Held lists the lock classes held, in acquisition order.
	Held []Held
	// Select is the select statement whose comm clause is being visited,
	// and Group its id ("sel@file.go:12"); nil and "" outside one.
	Select *ast.SelectStmt
	Group  string
	// Deferred marks a deferred call, which takes effect at End.
	Deferred bool
	// End closes the current frame: the function body or the literal.
	End token.Pos
}

// Walk visits fn's body in source order; visit sees each node before its
// children and returns false to skip them. The walk owns the constructs
// that change the context:
//
//   - `go func(){…}()` walks the literal under the launch label with
//     nothing held; the arguments run on the launching goroutine;
//   - `go f(args)` visits the call once, with Launch set, under the launch
//     label, then walks the arguments and any method receiver under the
//     launcher's context;
//   - a literal that is not launched keeps the label but starts with
//     nothing held and closes its own frame;
//   - a deferred call is visited once, with Deferred set, and its
//     arguments walked; a deferred unlock never releases, which keeps its
//     lock held to the end of the walk;
//   - the comm clauses of a select are walked with Select and Group set.
//
// Lock and unlock calls update Held after visit sees them. An early-exit
// branch (an if-body ending in return, break, continue, goto or panic)
// changes Held only for the rest of its own body: the fallthrough holds
// what was held before the if.
func (g *Graph) Walk(fn *Func, visit func(*Ctx, ast.Node) bool) {
	w := &walker{g: g, visit: visit}
	w.walk(fn.Decl.Body, &Ctx{Fn: fn, End: fn.Decl.Body.End()})
}

type walker struct {
	g     *Graph
	visit func(*Ctx, ast.Node) bool
}

func (w *walker) walk(n ast.Node, c *Ctx) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case nil:
			return false
		case *ast.GoStmt:
			w.visit(c, x)
			l := "go " + w.g.PosString(x.Pos())
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.walkAll(x.Call.Args, c)
				w.walk(lit.Body, &Ctx{Fn: c.Fn, Label: l, End: lit.Body.End()})
				return false
			}
			w.visit(&Ctx{Fn: c.Fn, Label: l, Launch: true, End: c.End}, x.Call)
			w.walkAll(x.Call.Args, c)
			if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
				w.walk(sel.X, c)
			}
			return false
		case *ast.FuncLit:
			w.walk(x.Body, &Ctx{Fn: c.Fn, Label: c.Label, End: x.Body.End()})
			return false
		case *ast.DeferStmt:
			d := *c
			d.Deferred = true
			w.visit(&d, x.Call)
			w.walkAll(x.Call.Args, c)
			return false
		case *ast.SelectStmt:
			if !w.visit(c, x) {
				return false
			}
			group := "sel@" + w.g.PosString(x.Pos())
			for _, cl := range x.Body.List {
				cc := cl.(*ast.CommClause)
				if cc.Comm != nil {
					sel, grp := c.Select, c.Group
					c.Select, c.Group = x, group
					w.walk(cc.Comm, c)
					c.Select, c.Group = sel, grp
				}
				for _, s := range cc.Body {
					w.walk(s, c)
				}
			}
			return false
		case *ast.IfStmt:
			if !terminates(x.Body) {
				break
			}
			if !w.visit(c, x) {
				return false
			}
			if x.Init != nil {
				w.walk(x.Init, c)
			}
			w.walk(x.Cond, c)
			held := c.Held
			w.walk(x.Body, c)
			c.Held = held
			if x.Else != nil {
				w.walk(x.Else, c)
			}
			return false
		case *ast.CallExpr:
			cls, kind := LockCall(w.g.Info, x)
			if kind == 0 {
				break
			}
			w.visit(c, x)
			if kind == KindAcquire {
				shared := x.Fun.(*ast.SelectorExpr).Sel.Name == "RLock"
				c.Held = append(c.Held, Held{Class: cls, Shared: shared, Pos: x.Pos()})
			} else {
				for i := len(c.Held) - 1; i >= 0; i-- {
					if c.Held[i].Class == cls {
						c.Held = append(c.Held[:i:i], c.Held[i+1:]...)
						break
					}
				}
			}
			return true
		}
		return w.visit(c, x)
	})
}

func (w *walker) walkAll(es []ast.Expr, c *Ctx) {
	for _, e := range es {
		w.walk(e, c)
	}
}

// terminates reports whether a block's last statement leaves the
// enclosing sequence — return, break/continue/goto, or a panic call — as
// in the guard-clause idiom
//
//	mu.Lock()
//	if busy { mu.Unlock(); return }
//	busy = true
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// ---- lock classes ----

// Lock-call kinds returned by LockCall.
const (
	// KindAcquire is a Lock/RLock call.
	KindAcquire = 1
	// KindRelease is an Unlock/RUnlock call.
	KindRelease = 2
)

// LockCall classifies call as an acquisition (KindAcquire) or release
// (KindRelease) of a trackable sync.Mutex/RWMutex, returning its class —
// "pkgpath.Type.field" for a mutex field, "pkgpath.var" for a
// package-level mutex — or ("", 0) for anything else, local mutexes
// included.
func LockCall(info *types.Info, call *ast.CallExpr) (string, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	kind := 0
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = KindAcquire
	case "Unlock", "RUnlock":
		kind = KindRelease
	default:
		return "", 0
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", 0
	}
	recv := selection.Recv()
	if !IsNamedType(recv, "sync", "Mutex") && !IsNamedType(recv, "sync", "RWMutex") {
		return "", 0
	}
	cls := mutexClass(info, sel.X)
	if cls == "" {
		return "", 0
	}
	return cls, kind
}

// mutexClass names the lock behind a Lock/Unlock selector base, or ""
// when it is a local (untrackable) mutex.
func mutexClass(info *types.Info, base ast.Expr) string {
	switch x := ast.Unparen(base).(type) {
	case *ast.SelectorExpr:
		if fsel, ok := info.Selections[x]; ok {
			t := fsel.Recv()
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
			return ""
		}
		// pkg.Var: a package-level mutex referenced across packages.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		obj := info.Defs[x]
		if obj == nil {
			obj = info.Uses[x]
		}
		if v, ok := obj.(*types.Var); ok && GlobalVar(v) {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}
