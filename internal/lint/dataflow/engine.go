package dataflow

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"cyclojoin/internal/lint/analysis"
)

// The origin engine: spscrole, shareguard and waitcycle are tables over
// it. A table recognizes its operations on named resources (a queue
// field, a guarded location, a channel) during the labeled walk, and the
// engine attributes every operation to the goroutine origins that can
// execute it:
//
//   - an operation on a parameter (receiver first) is a parameter op,
//     folded into every caller — to a fixpoint within the package, and
//     across packages through the facts — at the call site, where the
//     argument names the resource;
//   - an operation of a function with no caller or launch site in its
//     package is also pending: it rides the facts to the importing call
//     site, which supplies the goroutine;
//   - an operation inside a launched literal, or folded at a `go f(…)`
//     site, runs on that launch — a parameter op keeps its launch label
//     at every call site it is folded through; any other runs on its
//     function's origin set (Origins).
//
// Folded ops keep their order within the callee (Ord), and their select
// group and loop id scoped by the call site, so the check can order
// them in the caller's frame. The table's directive excuses an op at the
// op's statement, at an enclosing select, at the call site it is folded
// through, on the function's doc comment, or on the field declaration of
// its resource — the last one module-wide, through the facts. An excused
// op is kept, marked Safe: it still releases a peer, and a check that
// wants only the unexcused ops skips it.

// ringqPkg implements the queues and waiters the tables reason about;
// its own methods are the intrinsics, not subjects.
const ringqPkg = "cyclojoin/internal/ringq"

// Table is one analyzer over the origin engine.
type Table[P any] struct {
	// Directive excuses an op ("role").
	Directive string
	// Params folds ops on parameters into callers; without it they are
	// dropped.
	Params bool
	// Visit recognizes the table's ops at n and records them with
	// Engine.Emit; it returns false to skip n's children.
	Visit func(e *Engine[P], c *Ctx, n ast.Node) bool
	// Pending, when set, rewrites the payload of an op exported as
	// pending.
	Pending func(e *Engine[P], r *Raw[P]) P
	// Check reports on the attributed ops.
	Check func(e *Engine[P], attrs []Attr[P])
}

// Op is one operation in the form that crosses package boundaries.
type Op[P any] struct {
	// Res is the resource identity (ResourceIdent); empty for a
	// parameter op.
	Res string `json:"res,omitempty"`
	// Param is the receiver-first parameter index, or -1.
	Param int `json:"param"`
	// P is the table's payload.
	P P `json:"p"`
	// Held is the sorted set of lock classes held at the op; an op run
	// on its function's own goroutines adds those held at every
	// in-package call of the function.
	Held []string `json:"held,omitempty"`
	// Label is the launch the op runs on ("" = its function's origins).
	Label string `json:"label,omitempty"`
	// Group is the op's select group ("" = none), Loop its innermost
	// for/range loop ("" = none).
	Group string `json:"group,omitempty"`
	Loop  string `json:"loop,omitempty"`
	// Ord is the op's source order within its function.
	Ord int `json:"ord"`
	// Safe marks an op excused by the table's directive.
	Safe bool `json:"safe,omitempty"`
	// Site is the op's position, "file.go:12".
	Site string `json:"site"`
}

// FuncOps is one function's ops as exported in facts.
type FuncOps[P any] struct {
	// Params are the ops on the function's parameters.
	Params []Op[P] `json:"params,omitempty"`
	// Pending are the resource-named ops of a function with no caller in
	// its package.
	Pending []Op[P] `json:"pending,omitempty"`
}

// originFacts is the engine's per-package fact blob.
type originFacts[P any] struct {
	Funcs map[string]*FuncOps[P] `json:"funcs,omitempty"`
	// Safe lists the resources excused at their field declaration,
	// merged over the dependency cone.
	Safe []string `json:"safe,omitempty"`
}

// Raw is one op in the package under analysis.
type Raw[P any] struct {
	Op[P]
	// Fn is the function whose frame executes the op.
	Fn *Func
	// Pos is the op's position (a folded op's call site); Seq orders the
	// ops of one frame, folded ops in callee order.
	Pos token.Pos
	Seq int64
}

// Attr is one op attributed to one goroutine origin.
type Attr[P any] struct {
	*Raw[P]
	Origin string
}

// Site is one static call.
type Site struct {
	Caller *Func
	Call   *ast.CallExpr
	// Key is the callee's FuncKey, Callee its declaration when it is in
	// this package.
	Key    string
	Callee *Func
	// Label and Launch are the call's context (Launch: a `go f(…)`).
	Label  string
	Launch bool
	// Pos is where the call takes effect (a deferred call: its frame's
	// end); Held the lock classes held there.
	Pos  token.Pos
	Held []string

	// sel is the enclosing select, if any; loop (the innermost loop) and
	// safe (excused by the table's directive) are resolved when the site
	// first folds an op.
	sel      *ast.SelectStmt
	resolved bool
	loop     string
	safe     bool
}

// Engine is one run of a table over one package.
type Engine[P any] struct {
	Pass    *analysis.Pass
	G       *Graph
	Origins *Origins
	// Sites are the package's static calls, in walk order.
	Sites []*Site

	t        *Table[P]
	imported map[string]*FuncOps[P]
	local    map[string]*FuncOps[P]
	safe     map[string]bool
	fnSafe   map[*Func]bool
	params   map[*Func][]*types.Var
	loops    map[*Func][]loopRange
	own      map[*Func][]*Raw[P] // parameter ops, fn's own context
	raw      []*Raw[P]
	entry    map[*Func][]string // classes held at every call
}

type loopRange struct {
	pos, end token.Pos
	id       string
}

// RunTable runs t over the pass's package: the test files are left out
// (harnesses would hang phantom origins on everything they drive), the
// imported facts are read, the ops walked, folded and attributed, this
// package's facts exported, and t.Check handed the attributed ops.
func RunTable[P any](pass *analysis.Pass, t *Table[P]) error {
	if pass.Pkg.Path() == ringqPkg {
		return nil
	}
	var files []*ast.File
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	e := &Engine[P]{
		Pass:     pass,
		G:        NewGraph(pass.Fset, pass.Pkg, pass.TypesInfo, files),
		t:        t,
		imported: make(map[string]*FuncOps[P]),
		local:    make(map[string]*FuncOps[P]),
		safe:     make(map[string]bool),
		fnSafe:   make(map[*Func]bool),
		params:   make(map[*Func][]*types.Var),
		loops:    make(map[*Func][]loopRange),
		own:      make(map[*Func][]*Raw[P]),
	}
	for _, imp := range pass.Pkg.Imports() {
		f := DecodeFacts[originFacts[P]](pass.ImportedFacts(imp.Path()))
		for k, s := range f.Funcs {
			e.imported[k] = s
		}
		for _, loc := range f.Safe {
			e.safe[loc] = true
		}
	}
	e.Origins = NewOrigins(e.G)
	e.safeFields(files)
	for _, fn := range e.G.All() {
		e.local[fn.Key()] = &FuncOps[P]{}
		e.fnSafe[fn] = analysis.FuncHasDirective(fn.Decl, t.Directive)
		e.G.Walk(fn, e.visit)
	}
	if t.Params {
		e.solveParams()
	}
	e.solveEntryHeld()
	e.fold()
	attrs := e.attribute()
	pass.Export(e.facts())
	t.Check(e, attrs)
	return nil
}

func (e *Engine[P]) visit(c *Ctx, n ast.Node) bool {
	if call, ok := n.(*ast.CallExpr); ok {
		if callee := e.G.StaticCallee(call); callee != nil {
			pos := e.at(c, call.Pos())
			e.Sites = append(e.Sites, &Site{
				Caller: c.Fn, Call: call, Key: FuncKey(callee), Callee: e.Origins.funcOf(callee),
				Label: c.Label, Launch: c.Launch,
				Pos: pos, Held: classes(c.Held), sel: c.Select,
			})
		}
	}
	return e.t.Visit(e, c, n)
}

// Emit records an op on the resource res denotes. at is the node its
// directive is looked up on; pos its position (a deferred op takes
// effect at its frame's end).
func (e *Engine[P]) Emit(c *Ctx, at ast.Node, res ast.Expr, pos token.Pos, p P) {
	loc, idx := ResourceIdent(e.G, e.ParamsOf(c.Fn), res)
	if idx >= 0 && !e.t.Params || idx < 0 && (loc == "" || e.safe[loc]) {
		return
	}
	pos = e.at(c, pos)
	r := &Raw[P]{
		Op: Op[P]{
			Res: loc, Param: idx, P: p, Held: classes(c.Held), Label: c.Label, Group: c.Group,
			Loop: e.loopAt(c.Fn, pos), Safe: e.excused(c, at), Site: e.G.PosString(pos),
		},
		Fn: c.Fn, Pos: pos, Seq: seqOf(pos, 0),
	}
	if idx >= 0 {
		e.own[c.Fn] = append(e.own[c.Fn], r)
	} else {
		e.raw = append(e.raw, r)
	}
}

// ParamsOf returns fn's parameter objects, receiver first.
func (e *Engine[P]) ParamsOf(fn *Func) []*types.Var {
	ps, ok := e.params[fn]
	if !ok {
		ps = ParamObjects(fn)
		e.params[fn] = ps
	}
	return ps
}

func (e *Engine[P]) at(c *Ctx, pos token.Pos) token.Pos {
	if c.Deferred {
		return c.End
	}
	return pos
}

// excused looks the table's directive up for a node of c's function.
func (e *Engine[P]) excused(c *Ctx, n ast.Node) bool {
	if e.fnSafe[c.Fn] {
		return true
	}
	d := e.t.Directive
	return e.Pass.HasDirective(c.Fn.File, n, d) ||
		c.Select != nil && e.Pass.HasDirective(c.Fn.File, c.Select, d)
}

// safeFields collects the struct fields declared with the directive.
func (e *Engine[P]) safeFields(files []*ast.File) {
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if e.Pass.HasDirective(file, field, e.t.Directive) {
						for _, name := range field.Names {
							e.safe["("+e.G.Pkg.Path()+"."+ts.Name.Name+")."+name.Name] = true
						}
					}
				}
			}
		}
	}
}

// loopAt returns the id of fn's innermost for/range loop containing pos.
func (e *Engine[P]) loopAt(fn *Func, pos token.Pos) string {
	ls, ok := e.loops[fn]
	if !ok {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				ls = append(ls, loopRange{pos: n.Pos(), end: n.End(), id: "loop@" + e.G.PosString(n.Pos())})
			}
			return true
		})
		e.loops[fn] = ls
	}
	best, span := "", token.Pos(1<<60)
	for _, l := range ls {
		if l.pos <= pos && pos < l.end && l.end-l.pos < span {
			best, span = l.id, l.end-l.pos
		}
	}
	return best
}

// ---- folding ----

func (e *Engine[P]) summary(key string) *FuncOps[P] {
	if s, ok := e.local[key]; ok {
		return s
	}
	return e.imported[key]
}

// solveParams computes each function's parameter ops: its own, plus its
// callees' whose argument is one of its parameters, to a fixpoint.
func (e *Engine[P]) solveParams() {
	byCaller := make(map[*Func][]*Site)
	for _, s := range e.Sites {
		byCaller[s.Caller] = append(byCaller[s.Caller], s)
	}
	const maxRounds = 10
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fn := range e.G.All() {
			raws := append([]*Raw[P](nil), e.own[fn]...)
			for _, s := range byCaller[fn] {
				sum := e.summary(s.Key)
				if sum == nil {
					continue
				}
				args := CallArgs(e.G, s.Call)
				for _, op := range sum.Params {
					if op.Param >= len(args) {
						continue
					}
					if j, ok := ParamIndex(e.G, args[op.Param], e.ParamsOf(fn)); ok {
						raws = append(raws, e.folded(s, op, "", j))
					}
				}
			}
			sort.SliceStable(raws, func(i, j int) bool { return raws[i].Seq < raws[j].Seq })
			ops := make([]Op[P], len(raws))
			for i, r := range raws {
				ops[i] = r.Op
				ops[i].Ord = i
			}
			if sum := e.local[fn.Key()]; !same(sum.Params, ops) {
				sum.Params = ops
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// folded instantiates a callee op at call site s: on the op's own launch,
// which holds nothing of the caller's, if it has one, else in the site's
// context.
func (e *Engine[P]) folded(s *Site, op Op[P], res string, param int) *Raw[P] {
	site := e.G.PosString(s.Pos)
	if !s.resolved {
		s.loop = e.loopAt(s.Caller, s.Pos)
		s.safe = e.excused(&Ctx{Fn: s.Caller, Select: s.sel}, s.Call)
		s.resolved = true
	}
	loop := s.loop
	if op.Loop != "" {
		loop = site + "/" + op.Loop
	}
	group, label, held := "", op.Label, op.Held
	if op.Group != "" {
		group = site + "/" + op.Group
	}
	if label == "" {
		label, held = s.Label, union(s.Held, op.Held)
	}
	return &Raw[P]{
		Op: Op[P]{
			Res: res, Param: param, P: op.P, Held: held, Label: label,
			Group: group, Loop: loop, Safe: op.Safe || s.safe, Site: site,
		},
		Fn: s.Caller, Pos: s.Pos, Seq: seqOf(s.Pos, op.Ord),
	}
}

// fold instantiates, at every call site, the callee's parameter ops
// whose argument names a resource, and an imported callee's pending ops.
func (e *Engine[P]) fold() {
	for _, s := range e.Sites {
		sum, inPkg := e.local[s.Key], true
		if sum == nil {
			sum, inPkg = e.imported[s.Key], false
		}
		if sum == nil {
			continue
		}
		args := CallArgs(e.G, s.Call)
		for _, op := range sum.Params {
			if op.Param < 0 || op.Param >= len(args) {
				continue
			}
			// A caller's parameter was folded by solveParams.
			if loc, _ := ResourceIdent(e.G, e.ParamsOf(s.Caller), args[op.Param]); loc != "" && !e.safe[loc] {
				e.raw = append(e.raw, e.folded(s, op, loc, -1))
			}
		}
		if inPkg {
			continue // its own ops are attributed at its declaration
		}
		for _, op := range sum.Pending {
			if op.Res != "" && !e.safe[op.Res] {
				e.raw = append(e.raw, e.folded(s, op, op.Res, -1))
			}
		}
	}
}

// ---- attribution ----

// attribute fans every op out to the origins of its context, and exports
// the ops of functions with no in-package evidence as pending.
func (e *Engine[P]) attribute() []Attr[P] {
	perFn := make(map[*Func][]*Raw[P])
	for _, r := range e.raw {
		if r.Label == "" {
			perFn[r.Fn] = append(perFn[r.Fn], r)
		}
	}
	ord := make(map[*Raw[P]]int)
	for _, rs := range perFn {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
		for i, r := range rs {
			ord[r] = i
		}
	}
	var out []Attr[P]
	for _, r := range e.raw {
		ctx := []string{r.Label}
		if r.Label == "" {
			ctx = e.Origins.Of(r.Fn)
			r.Held = union(r.Held, e.entry[r.Fn])
			if !e.Origins.HasEvidence(r.Fn) {
				op := r.Op
				op.Ord = ord[r]
				if e.t.Pending != nil {
					op.P = e.t.Pending(e, r)
				}
				sum := e.local[r.Fn.Key()]
				sum.Pending = append(sum.Pending, op)
			}
		}
		for _, origin := range ctx {
			out = append(out, Attr[P]{Raw: r, Origin: origin})
		}
	}
	return out
}

// solveEntryHeld computes, per function, the lock classes held at every
// in-package call site (the intersection): an op in a helper called only
// under a lock is guarded by that lock. A launch starts with nothing held.
func (e *Engine[P]) solveEntryHeld() {
	bySite := make(map[*Func][]*Site)
	for _, s := range e.Sites {
		if s.Callee != nil {
			bySite[s.Callee] = append(bySite[s.Callee], s)
		}
	}
	// unknown marks a function none of whose callers is resolved yet:
	// the identity of the intersection.
	unknown := make(map[*Func]bool)
	e.entry = make(map[*Func][]string)
	for fn := range bySite {
		unknown[fn] = true
	}
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fn := range e.G.All() {
			sites := bySite[fn]
			if len(sites) == 0 {
				continue
			}
			var next []string
			first := true
			for _, s := range sites {
				held := s.Held
				if s.Launch {
					held = nil
				} else if s.Label == "" {
					if unknown[s.Caller] {
						continue
					}
					held = union(held, e.entry[s.Caller])
				}
				if first {
					next, first = held, false
				} else {
					next = intersect(next, held)
				}
			}
			if first {
				continue
			}
			if unknown[fn] || !same(e.entry[fn], next) {
				unknown[fn] = false
				e.entry[fn] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// An unreachable recursion cluster stays unknown: assume unguarded.
	for fn, u := range unknown {
		if u {
			e.entry[fn] = nil
		}
	}
}

// facts serializes the non-empty summaries and the safe resources.
func (e *Engine[P]) facts() []byte {
	f := originFacts[P]{Funcs: make(map[string]*FuncOps[P])}
	for k, s := range e.local {
		if len(s.Params) > 0 || len(s.Pending) > 0 {
			f.Funcs[k] = s
		}
	}
	for loc := range e.safe {
		f.Safe = append(f.Safe, loc)
	}
	sort.Strings(f.Safe)
	return EncodeFacts(f)
}

// ---- helpers ----

// seqOf packs a position and a fold order into one comparable value.
func seqOf(pos token.Pos, sub int) int64 {
	return int64(pos)<<12 | int64(min(sub, 0xfff))
}

// classes returns the sorted, deduplicated lock classes of held.
func classes(held []Held) []string {
	var out []string
	for _, h := range held {
		out = append(out, h.Class)
	}
	return union(out, nil)
}

// union returns the sorted, deduplicated union of a and b.
func union(a, b []string) []string {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := append(append([]string(nil), a...), b...)
	sort.Strings(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// intersect returns the elements of sorted a also in b.
func intersect(a, b []string) []string {
	var out []string
	for _, v := range a {
		for _, x := range b {
			if v == x {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// same reports whether a and b hold equal elements, nil equal to empty.
func same[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// Intersects reports whether a and b share an element.
func Intersects(a, b []string) bool { return len(intersect(a, b)) > 0 }

// ---- the fact codec ----

// EncodeFacts serializes a fact blob. encoding/json writes map keys in
// sorted order, so equal facts give equal bytes.
func EncodeFacts(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return data
}

// DecodeFacts parses a fact blob, returning the zero T for nil or
// malformed data.
func DecodeFacts[T any](data []byte) T {
	var v T
	if len(data) > 0 && json.Unmarshal(data, &v) != nil {
		var zero T
		return zero
	}
	return v
}
