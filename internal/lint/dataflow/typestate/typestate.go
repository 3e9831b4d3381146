// Package typestate is the path-sensitive typestate engine behind
// cyclolint's custody analyzers (bufown, creditflow, spanpair). An
// analyzer supplies a Table — what acquires an obligation, what releases
// it, what hands it on, and the words of its diagnostics — and Run does
// the rest:
//
//   - a walk over each function body that keeps every tracked object's
//     state (untracked, released, posted, held) per control-flow path:
//     both arms of an if, each case of a switch, type switch or select,
//     and one iteration of a loop body, checked at the back edge. Merges
//     keep the leakiest state, so an obligation held on any path is held;
//   - one acquire path for `:=`, `=` and `var`. It pairs the error or ok
//     companion of a multi-value acquire, so the branch where the acquire
//     failed holds nothing;
//   - deferred releases applied at the defer (they cover every later
//     return), calls that never return (panic, os.Exit, log.Fatal*,
//     log.Panic*) ending their path, and functions with goto skipped;
//   - per-path escapes: an object stored, captured, returned, aliased or
//     passed to a callee of unknown custody stops being tracked on that
//     path — custody the walk cannot see is the owner's contract. A
//     table may instead give a whole-function escape verdict (Escapes);
//   - custody effects (effect.go), which carry releasing, borrowing and
//     acquiring helpers across calls and packages.
//
// Reports are deduplicated per (object, position) and suppressed by the
// table's //cyclolint:<directive> on the statement or the function.
package typestate

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow"
)

// Table is one analyzer's protocol.
type Table struct {
	// Directive names the exemption directive ("bufsafe"); empty means
	// the analyzer has none.
	Directive string
	// Skip is the import path of a package whose functions are not
	// walked: the protocol's own implementation. Facts still pass
	// through it.
	Skip string

	// Tracks reports whether values of type t carry the obligation.
	Tracks func(t types.Type) bool
	// Acquire reports whether e, feeding result slot slot, mints an
	// obligation. home is where a suggested fix releases it, or nil.
	Acquire func(pass *analysis.Pass, e ast.Expr, slot int) (home ast.Expr, ok bool)
	// Release returns the operand a send or a call releases, or nil.
	Release func(pass *analysis.Pass, n ast.Node) ast.Expr
	// Guard reports whether the companion of a multi-value acquire, of
	// type t, tells that the acquire failed: an error (`err != nil`) or
	// a bool (`!ok`). Nil means acquires have no guard.
	Guard func(t types.Type) bool
	// Post reports a call that hands its tracked arguments, other than
	// the receiver, to a transport. With Reap set they stay tracked as
	// posted until a reap; without it custody ends at the post.
	Post func(pass *analysis.Pass, call *ast.CallExpr) bool
	// Reap reports a channel type whose receive hands every posted
	// object back to the program.
	Reap func(t types.Type) bool
	// Access lists the methods that are invalid on a posted object.
	Access map[string]bool
	// Escapes, when set, replaces per-path escape with a whole-function
	// verdict: the objects it returns for a body are not tracked there
	// at all.
	Escapes func(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool

	Msg Messages
}

// Messages are a table's diagnostic formats. An empty format turns its
// check off; Held and BackEdge are required.
type Messages struct {
	Held          string // name, acquire position: held at a return
	BackEdge      string // name: held at a loop's back edge
	Overwrite     string // name, acquire position: reassigned while held
	DoubleRelease string // name, previous release
	DoublePost    string // name, previous post
	Access        string // name, method, post: method call while posted
	Fix           string // name: what the suggested fix does
	FixText       string // home, name: the release statement it inserts
}

// Run checks one package against t. An analyzer that UsesFacts also
// gets custody effects: inferred for every function, imported from
// dependencies and exported to importers.
func Run(pass *analysis.Pass, t *Table) {
	e := &engine{pass: pass, t: t, g: dataflow.NewGraph(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)}
	if pass.Analyzer.UsesFacts {
		e.effects = make(map[string]*Effect)
		for _, imp := range pass.Pkg.Imports() {
			maps.Copy(e.effects, DecodeFacts(pass.ImportedFacts(imp.Path())))
		}
		if pass.Pkg.Path() != t.Skip {
			e.solve()
		}
		pass.Export(EncodeFacts(e.effects))
	}
	if pass.Pkg.Path() == t.Skip {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || t.Directive != "" && analysis.FuncHasDirective(fn, t.Directive) {
				continue
			}
			e.check(file, fn)
		}
	}
}

// engine is one package's run: the table, the package and its effects,
// and the per-function walk state.
type engine struct {
	pass    *analysis.Pass
	t       *Table
	g       *dataflow.Graph
	effects map[string]*Effect

	file    *ast.File
	objs    map[types.Object]*tracked
	escaped map[types.Object]bool
	// guards maps the companion of a multi-value acquire to the object
	// it guards.
	guards   map[types.Object]types.Object
	reported map[posKey]bool
}

// tracked is one acquire site.
type tracked struct {
	acquire token.Pos
	home    ast.Expr
}

type posKey struct {
	obj types.Object
	pos token.Pos
}

type status uint8

const (
	untracked status = iota
	released
	posted
	held // highest wins on merge: an obligation held on any path is held
)

type fact struct {
	s status
	// pos is where s was set: the release or post a double cites.
	pos token.Pos
}

// state maps tracked objects to their fact along one path.
type state map[types.Object]fact

// merge folds other into s, keeping the leakier fact.
func (s state) merge(other state) {
	for k, v := range other {
		if v.s > s[k].s {
			s[k] = v
		}
	}
}

// reset makes s a copy of src.
func (s state) reset(src state) {
	clear(s)
	maps.Copy(s, src)
}

func (e *engine) check(file *ast.File, fn *ast.FuncDecl) {
	if !e.mayAcquire(fn.Body) {
		return
	}
	e.file = file
	e.objs = make(map[types.Object]*tracked)
	e.guards = make(map[types.Object]types.Object)
	e.reported = make(map[posKey]bool)
	e.escaped = nil
	if e.t.Escapes != nil {
		e.escaped = e.t.Escapes(e.pass, fn.Body)
	}
	st := make(state)
	if !e.stmt(fn.Body, st) {
		// Falling off the end of the body is an implicit return.
		e.reportHeld(st, fn.Body.End(), fn.Body)
	}
}

// mayAcquire reports whether body is worth walking: it binds some
// acquire, and it has no goto, which the walk does not model.
func (e *engine) mayAcquire(body *ast.BlockStmt) bool {
	acquires, hasGoto := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BranchStmt:
			hasGoto = hasGoto || x.Tok == token.GOTO
		case *ast.AssignStmt:
			acquires = acquires || e.bindsAcquire(x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			acquires = acquires || e.bindsAcquire(idents(x.Names), x.Values)
		}
		return !hasGoto
	})
	return acquires && !hasGoto
}

func (e *engine) bindsAcquire(lhs, rhs []ast.Expr) bool {
	found := false
	bindings(lhs, rhs, func(l, r ast.Expr, slot int) {
		if obj := e.lhsObj(l); obj != nil && !found {
			found, _ = e.acquire(r, slot)
		}
	})
	return found
}

// bindings calls f for each left-hand side of an assignment or var spec
// with the expression and result slot it receives: position by
// position, or slot i of a single multi-value right-hand side.
func bindings(lhs, rhs []ast.Expr, f func(l, r ast.Expr, slot int)) {
	for i, l := range lhs {
		switch {
		case len(lhs) == len(rhs):
			f(l, rhs[i], 0)
		case len(rhs) == 1:
			f(l, rhs[0], i)
		}
	}
}

func idents(names []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(names))
	for i, n := range names {
		out[i] = n
	}
	return out
}

// lhsObj returns the object a binding target names when its type is
// tracked.
func (e *engine) lhsObj(l ast.Expr) types.Object {
	id, ok := l.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := e.objOf(id); obj != nil && e.t.Tracks(obj.Type()) {
		return obj
	}
	return nil
}

func (e *engine) objOf(id *ast.Ident) types.Object {
	if o := e.pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return e.pass.TypesInfo.Uses[id]
}

// acquire classifies x feeding result slot: a direct acquire of the
// table, or a call whose effect acquires that result.
func (e *engine) acquire(x ast.Expr, slot int) (bool, ast.Expr) {
	if home, ok := e.t.Acquire(e.pass, x, slot); ok {
		return true, home
	}
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		if ce := e.calleeEffect(call); ce != nil && slices.Contains(ce.AcquiresResult, slot) {
			return true, nil
		}
	}
	return false, nil
}

// trackedIdent resolves x to a tracked object, if it is one.
func (e *engine) trackedIdent(x ast.Expr) types.Object {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := e.objOf(id); obj != nil && e.objs[obj] != nil {
		return obj
	}
	return nil
}

// ---- reporting ----

// shouldReport records a report key, reporting whether it is new and not
// exempted by the directive at node.
func (e *engine) shouldReport(obj types.Object, at token.Pos, node ast.Node) bool {
	key := posKey{obj, at}
	if e.reported[key] {
		return false
	}
	e.reported[key] = true
	return node == nil || e.t.Directive == "" || !e.pass.HasDirective(e.file, node, e.t.Directive)
}

func (e *engine) report(obj types.Object, at token.Pos, node ast.Node, format string, args ...any) {
	if format != "" && e.shouldReport(obj, at, node) {
		e.pass.Reportf(at, format, args...)
	}
}

func (e *engine) reportHeld(st state, at token.Pos, node ast.Node) {
	for obj, v := range st {
		tr := e.objs[obj]
		// tr is nil once a reap on another path ended tracking.
		if v.s != held || tr == nil || !e.shouldReport(obj, at, node) {
			continue
		}
		d := analysis.Diagnostic{Pos: at, Message: fmt.Sprintf(e.t.Msg.Held, obj.Name(), e.pass.Fset.Position(tr.acquire))}
		if fix := e.releaseFix(tr, obj, at); fix != nil {
			d.Fixes = append(d.Fixes, *fix)
		}
		e.pass.Report(d)
	}
}

// releaseFix inserts the table's release statement in front of the
// leaking return, matching the return's indentation.
func (e *engine) releaseFix(tr *tracked, obj types.Object, at token.Pos) *analysis.SuggestedFix {
	if tr.home == nil || e.t.Msg.FixText == "" {
		return nil
	}
	var home bytes.Buffer
	if err := printer.Fprint(&home, e.pass.Fset, tr.home); err != nil {
		return nil
	}
	indent := strings.Repeat("\t", e.pass.Fset.Position(at).Column-1)
	return &analysis.SuggestedFix{
		Message: fmt.Sprintf(e.t.Msg.Fix, obj.Name()),
		Edits: []analysis.TextEdit{{
			Pos:     at,
			End:     at,
			NewText: fmt.Sprintf(e.t.Msg.FixText, home.String(), obj.Name()) + "\n" + indent,
		}},
	}
}
