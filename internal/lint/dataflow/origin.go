package dataflow

import (
	"go/ast"
	"go/types"
	"sort"
)

// Goroutine-origin analysis: every `go` statement is a labeled origin,
// and each function gets the set of origins that can execute it. The
// model is static — an origin is a launch *site* ("go node.go:396"), not
// a dynamic goroutine — which matches the ringq SPSC contract exactly:
// "single producer" means one producer launch site (or a succession of
// goroutines from the same site ordered by other synchronization), so
// two distinct sites reaching the same endpoint is the protocol smell.
//
// Within one package the propagation is a fixpoint over two edge kinds:
//
//   - a plain static call F → C (including calls inside non-go'd func
//     literals, and deferred calls) propagates origins(F) into origins(C);
//   - `go C(...)` at position p, or a static call to C inside a func
//     literal launched at p, contributes the label "go <file:line of p>".
//
// Functions with no in-package callers or launch sites are roots and get
// the distinguished "entry" origin: they run in whatever goroutine the
// external caller (main, a test, an importing package) happens to be on.
// A function referenced as a value (method value, assigned to a field)
// also gets "entry", since its execution context is no longer visible.
//
// Cross-package propagation is one-directional by construction: a
// bottom-up pass cannot add origins to an already-analyzed dependency.
// The origin engine (engine.go) bridges the gap with pending ops,
// attributed at the importing call site instead.

// EntryOrigin is the label for functions executable from outside the
// package's visible goroutine structure.
const EntryOrigin = "entry"

// Origins holds the per-function origin sets of one package.
type Origins struct {
	g *Graph
	// byFunc maps each declared function to its sorted origin labels.
	byFunc map[*Func][]string
	// evidence marks functions with at least one in-package caller or
	// launch site: their origin set reflects observed execution, not just
	// the root default.
	evidence map[*Func]bool
}

// NewOrigins computes the package's goroutine-origin sets.
func NewOrigins(g *Graph) *Origins {
	o := &Origins{
		g:        g,
		byFunc:   make(map[*Func][]string),
		evidence: make(map[*Func]bool),
	}
	o.solve()
	return o
}

// Of returns fn's sorted origin labels ({"entry"} for roots).
func (o *Origins) Of(fn *Func) []string { return o.byFunc[fn] }

// HasEvidence reports whether fn's origins stem from observed in-package
// calls or launches rather than the root default. The engine uses this
// to decide whether a root's ops are attributable here or must ride the
// facts to the real caller's package.
func (o *Origins) HasEvidence(fn *Func) bool { return o.evidence[fn] }

// GoLabel renders the origin label for a `go` statement.
func (o *Origins) GoLabel(g *ast.GoStmt) string {
	return "go " + o.g.PosString(g.Pos())
}

// originEdges is the per-package call/launch structure the fixpoint runs
// over.
type originEdges struct {
	// calls maps callee → callers (plain same-goroutine calls).
	calls map[*Func][]*Func
	// launched maps callee → launch labels.
	launched map[*Func][]string
	// valueRef marks functions referenced outside call position.
	valueRef map[*Func]bool
}

func (o *Origins) solve() {
	e := o.collect()
	// Seed: launch labels, entry for roots and value-referenced functions.
	sets := make(map[*Func]map[string]bool)
	for _, fn := range o.g.All() {
		set := make(map[string]bool)
		for _, l := range e.launched[fn] {
			set[l] = true
		}
		if len(e.calls[fn]) > 0 || len(e.launched[fn]) > 0 {
			o.evidence[fn] = true
		}
		if !o.evidence[fn] || e.valueRef[fn] {
			set[EntryOrigin] = true
		}
		sets[fn] = set
	}
	// Fixpoint: origins flow from callers into callees over plain calls.
	for changed := true; changed; {
		changed = false
		for _, fn := range o.g.All() {
			set := sets[fn]
			for _, caller := range e.calls[fn] {
				for l := range sets[caller] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		}
	}
	for fn, set := range sets {
		labels := make([]string, 0, len(set))
		for l := range set {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		o.byFunc[fn] = labels
	}
}

// funcOf resolves a called/referenced expression to a declared function
// of this package, normalizing generic instantiations to their origin.
func (o *Origins) funcOf(obj types.Object) *Func {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	return o.g.Funcs[fn]
}

// collect walks every function body once, classifying each static call as
// a plain edge (same goroutine) or a launch (inside a go statement or a
// go'd func literal), and noting value references.
func (o *Origins) collect() *originEdges {
	e := &originEdges{
		calls:    make(map[*Func][]*Func),
		launched: make(map[*Func][]string),
		valueRef: make(map[*Func]bool),
	}
	for _, fn := range o.g.All() {
		o.walk(fn, fn.Decl.Body, "", e)
	}
	return e
}

// walk traverses n attributing static calls: label == "" means the code
// runs on fn's own goroutine(s); otherwise it runs on the goroutine
// launched at label.
func (o *Origins) walk(fn *Func, n ast.Node, label string, e *originEdges) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			l := "go " + o.g.PosString(x.Pos())
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				// Arguments evaluate on the launching goroutine.
				for _, a := range x.Call.Args {
					o.walk(fn, a, label, e)
				}
				o.walk(fn, lit.Body, l, e)
				return false
			}
			if callee := o.staticTarget(x.Call); callee != nil {
				e.launched[callee] = append(e.launched[callee], l)
			}
			for _, a := range x.Call.Args {
				o.walk(fn, a, label, e)
			}
			// The callee expression itself (e.g. a method receiver) also
			// evaluates on the launching goroutine.
			if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
				o.walk(fn, sel.X, label, e)
			}
			return false
		case *ast.CallExpr:
			if callee := o.staticTarget(x); callee != nil {
				if label == "" {
					e.calls[callee] = append(e.calls[callee], fn)
				} else {
					e.launched[callee] = append(e.launched[callee], label)
				}
			}
			return true
		case *ast.Ident:
			// A function name used outside call position: its execution
			// context escapes the analysis.
			if target := o.funcOf(o.g.Info.Uses[x]); target != nil {
				if !o.isCallFun(x) {
					e.valueRef[target] = true
				}
			}
			return true
		}
		return true
	})
}

// staticTarget resolves a call to a function declared in this package.
func (o *Origins) staticTarget(call *ast.CallExpr) *Func {
	callee := o.g.StaticCallee(call)
	if callee == nil {
		return nil
	}
	return o.funcOf(callee)
}

// isCallFun reports whether id appears as the function operand of some
// call expression (lazily indexing the whole package on first use).
func (o *Origins) isCallFun(id *ast.Ident) bool {
	if o.g.callFuns == nil {
		o.g.callFuns = make(map[*ast.Ident]bool)
		for _, fn := range o.g.All() {
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := ast.Unparen(call.Fun)
				switch x := f.(type) {
				case *ast.IndexExpr:
					f = ast.Unparen(x.X)
				case *ast.IndexListExpr:
					f = ast.Unparen(x.X)
				}
				switch x := f.(type) {
				case *ast.Ident:
					o.g.callFuns[x] = true
				case *ast.SelectorExpr:
					o.g.callFuns[x.Sel] = true
				}
				return true
			})
		}
	}
	return o.g.callFuns[id]
}
