// Package dataflow is cyclolint's compact def-use dataflow IR: the
// machinery that lets analyzers follow values across function boundaries
// instead of stopping at the first call.
//
// It deliberately stays far smaller than go/ssa:
//
//   - Graph (this file): the package's function index and call-graph
//     primitives — static callee resolution, and candidate resolution for
//     dynamic interface-method calls by method name plus receiver-less
//     signature.
//   - Flow (flow.go): a per-function, flow-insensitive def-use graph.
//     Every named value (param, local, global) and every call result is a
//     node; every assignment, store, send, return or composite literal is
//     an edge annotated with its source position and a human-readable
//     description of the flow step. "SSA-lite": one node per variable
//     rather than per definition — taint only grows along edges, which is
//     exactly the monotone shape escape analyses need.
//   - Escape (escape.go): the bottom-up interprocedural summary engine
//     built on Flow, viewescape's.
//   - Origins and the origin engine (origin.go, walk.go, engine.go): which
//     goroutines execute each function, a labeled walk that knows the
//     goroutine, held locks and select group at every node, and the engine
//     that attributes a table's ops to goroutine origins through helpers,
//     launches and facts. spscrole, shareguard and waitcycle are tables
//     over it; lockorder walks with it.
//
// Summaries cross package boundaries as facts through one codec
// (EncodeFacts, DecodeFacts) into the run's fact store. Path-sensitive acquire/release checks (bufown, creditflow,
// spanpair) are tables over the typestate subpackage.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Func is one declared function or method with a body.
type Func struct {
	// Obj is the type-checker's object for the declaration.
	Obj *types.Func
	// Decl is the source declaration (Body non-nil).
	Decl *ast.FuncDecl
	// File is the file containing Decl.
	File *ast.File
}

// Key returns the stable cross-package identity of the function,
// e.g. "(*cyclojoin/internal/ring.node).deliver".
func (f *Func) Key() string { return FuncKey(f.Obj) }

// FuncKey renders fn's stable cross-package identity. Instantiated
// generic functions and methods normalize to their generic origin
// declaration — (*ringq.SPSC[ring.inflight]).TryPush keys as
// (*ringq.SPSC[T]).TryPush — so call sites of an instantiation find the
// summary computed for the declared (generic) body.
func FuncKey(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn.FullName()
}

// Graph indexes one type-checked package's functions for interprocedural
// analysis.
type Graph struct {
	// Fset maps positions for the package's files.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *types.Package
	// Info holds the type-checker's facts.
	Info *types.Info
	// Funcs maps each declared function object to its declaration.
	Funcs map[*types.Func]*Func
	// accessors maps a dependency's accessor methods (FuncKey) to the
	// field each returns (see accessor).
	accessors map[string]string

	ordered []*Func
	// callFuns lazily indexes identifiers in call-operand position
	// (Origins uses it to detect functions referenced as values).
	callFuns map[*ast.Ident]bool
}

// NewGraph indexes files (all from pkg) by walking their declarations.
func NewGraph(fset *token.FileSet, pkg *types.Package, info *types.Info, files []*ast.File) *Graph {
	g := &Graph{Fset: fset, Pkg: pkg, Info: info, Funcs: make(map[*types.Func]*Func), accessors: make(map[string]string)}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn := &Func{Obj: obj, Decl: fd, File: file}
			g.Funcs[obj] = fn
			g.ordered = append(g.ordered, fn)
		}
	}
	keys := make(map[*Func]string, len(g.ordered))
	for _, fn := range g.ordered {
		keys[fn] = fn.Key()
	}
	sort.Slice(g.ordered, func(i, j int) bool { return keys[g.ordered[i]] < keys[g.ordered[j]] })
	return g
}

// All returns the package's functions in deterministic (key) order.
func (g *Graph) All() []*Func { return g.ordered }

// StaticCallee resolves a call to the *types.Func it statically invokes:
// a plain function, a method on a concrete receiver, or a method value.
// Explicitly instantiated generic calls (F[T](…)) resolve to the generic
// function; use FuncKey on the result for summary lookups. It returns nil
// for dynamic calls (interface methods, function values) and for builtins
// and conversions.
func (g *Graph) StaticCallee(call *ast.CallExpr) *types.Func {
	fn := ast.Unparen(call.Fun)
	// Strip an explicit instantiation F[T] / F[T1, T2]: index syntax on an
	// expression that names a function can only be a generic instantiation.
	switch ix := fn.(type) {
	case *ast.IndexExpr:
		if inner := ast.Unparen(ix.X); g.namesFunc(inner) {
			fn = inner
		}
	case *ast.IndexListExpr:
		fn = ast.Unparen(ix.X)
	}
	switch fun := fn.(type) {
	case *ast.Ident:
		if fn, ok := g.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := g.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			// A method on an interface receiver dispatches dynamically.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return fn
		}
		// Qualified identifier pkg.F.
		if fn, ok := g.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namesFunc reports whether e is an identifier or selector resolving to a
// function object (the operand of a generic instantiation).
func (g *Graph) namesFunc(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		_, ok := g.Info.Uses[x].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := g.Info.Uses[x.Sel].(*types.Func)
		return ok
	}
	return false
}

// InterfaceMethod returns the interface method a dynamic call dispatches
// through, or nil when the call is not an interface-method call.
func (g *Graph) InterfaceMethod(call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := g.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	if !types.IsInterface(selection.Recv()) {
		return nil
	}
	fn, _ := selection.Obj().(*types.Func)
	return fn
}

// SigKey renders a method's identity for interface dispatch matching:
// the method name plus its receiver-less parameter and result types,
// fully package-qualified. Two methods with equal SigKeys are treated as
// possible targets of the same interface call.
func SigKey(name string, sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	s := name + "("
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			s += ","
		}
		s += types.TypeString(sig.Params().At(i).Type(), qual)
	}
	s += ")("
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			s += ","
		}
		s += types.TypeString(sig.Results().At(i).Type(), qual)
	}
	if sig.Variadic() {
		s += ")variadic"
	} else {
		s += ")"
	}
	return s
}

// FuncSigKey is SigKey for a function object.
func FuncSigKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return fn.Name() + "(?)"
	}
	return SigKey(fn.Name(), sig)
}

// CanAlias reports whether a value of type t can carry a reference into
// tracked storage: pointers, slices, maps, channels, interfaces,
// functions, unsafe pointers, and aggregates containing any of those.
// Scalars (ints, floats, bools) and strings cannot, which is what keeps
// field-insensitive flow from poisoning every integer read off a tracked
// struct.
func CanAlias(t types.Type) bool {
	return canAlias(t, make(map[types.Type]bool))
}

func canAlias(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canAlias(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return canAlias(u.Elem(), seen)
	default:
		// Pointer, slice, map, chan, interface, signature, tuple.
		return true
	}
}

// IsNamedType reports whether t is the named type pkgPath.name, possibly
// behind a pointer.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// PosString renders a position for embedding in summary descriptions:
// "file.go:12" with the directory stripped, stable across machines.
func (g *Graph) PosString(pos token.Pos) string {
	p := g.Fset.Position(pos)
	name := p.Filename
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			name = name[i+1:]
			break
		}
	}
	return name + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
