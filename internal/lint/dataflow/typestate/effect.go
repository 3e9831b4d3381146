package typestate

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"

	"cyclojoin/internal/lint/dataflow"
)

// Effect is one function's custody behavior in receiver-first parameter
// indexing (dataflow.ParamObjects). It crosses package boundaries as a
// serialized fact, so a helper that releases or acquires on its
// caller's behalf is understood from any importing package.
type Effect struct {
	// Key is the function's dataflow.FuncKey.
	Key string `json:"key"`
	// ParamRelease lists the parameters whose obligation the callee
	// discharges: released, handed to a channel, posted, or passed to a
	// releasing callee.
	ParamRelease []int `json:"param_release,omitempty"`
	// ParamBorrowed lists tracked parameters the callee only borrows: it
	// neither releases nor keeps them, so custody stays with the caller
	// across the call (e.g. a helper that stages bytes into a buffer).
	ParamBorrowed []int `json:"param_borrowed,omitempty"`
	// AcquiresResult lists result indices carrying an obligation the
	// callee acquired; the caller takes it over.
	AcquiresResult []int `json:"acquires_result,omitempty"`
}

func (e *Effect) empty() bool {
	return len(e.ParamRelease) == 0 && len(e.ParamBorrowed) == 0 && len(e.AcquiresResult) == 0
}

func (e *Effect) equal(o *Effect) bool {
	return o != nil && slices.Equal(e.ParamRelease, o.ParamRelease) &&
		slices.Equal(e.ParamBorrowed, o.ParamBorrowed) &&
		slices.Equal(e.AcquiresResult, o.AcquiresResult)
}

// factBlob is the per-package fact blob.
type factBlob struct {
	Effects []*Effect `json:"effects"`
}

// EncodeFacts serializes an effect table in deterministic order,
// leaving out empty effects.
func EncodeFacts(effects map[string]*Effect) []byte {
	keys := make([]string, 0, len(effects))
	for k, e := range effects {
		if e != nil && !e.empty() {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var f factBlob
	for _, k := range keys {
		f.Effects = append(f.Effects, effects[k])
	}
	return dataflow.EncodeFacts(f)
}

// DecodeFacts parses a fact blob, tolerating nil and garbage.
func DecodeFacts(data []byte) map[string]*Effect {
	out := make(map[string]*Effect)
	for _, e := range dataflow.DecodeFacts[factBlob](data).Effects {
		if e != nil && e.Key != "" {
			out[e.Key] = e
		}
	}
	return out
}

// solve computes each local function's Effect to a fixpoint, on top of
// the imported ones already in e.effects.
func (e *engine) solve() {
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fn := range e.g.All() {
			eff := e.infer(fn)
			if !eff.equal(e.effects[eff.Key]) {
				e.effects[eff.Key] = eff
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (e *engine) calleeEffect(call *ast.CallExpr) *Effect {
	if e.effects == nil {
		return nil
	}
	fn := e.g.StaticCallee(call)
	if fn == nil {
		return nil
	}
	return e.effects[dataflow.FuncKey(fn)]
}

// infer derives fn's effect flow-insensitively: which tracked parameters
// it releases or only borrows, through plain local aliases, and which
// results carry a fresh acquire.
func (e *engine) infer(fn *dataflow.Func) *Effect {
	eff := &Effect{Key: fn.Key()}
	body := fn.Decl.Body
	params := dataflow.ParamObjects(fn)

	// paramIdx maps a tracked parameter, or a local aliasing one via a
	// plain `a := p`, to the parameter's index; acquired marks locals
	// bound to an acquire.
	paramIdx := make(map[types.Object]int)
	for i, p := range params {
		if e.t.Tracks(p.Type()) {
			paramIdx[p] = i
		}
	}
	acquired := make(map[types.Object]bool)
	// Two rounds grow aliases of aliases declared out of order.
	for round := 0; round < 2; round++ {
		ast.Inspect(body, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch x := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = x.Lhs, x.Rhs
			case *ast.ValueSpec:
				lhs, rhs = idents(x.Names), x.Values
			default:
				return true
			}
			bindings(lhs, rhs, func(l, r ast.Expr, slot int) {
				lobj := e.lhsObj(l)
				if lobj == nil {
					return
				}
				if rid, ok := ast.Unparen(r).(*ast.Ident); ok && len(lhs) == len(rhs) {
					if robj := e.objOf(rid); robj != nil {
						if idx, ok := paramIdx[robj]; ok {
							paramIdx[lobj] = idx
						}
						if acquired[robj] {
							acquired[lobj] = true
						}
					}
					return
				}
				if ok, _ := e.acquire(r, slot); ok {
					acquired[lobj] = true
				}
			})
			return true
		})
	}
	paramOf := func(x ast.Expr) (int, bool) {
		id, ok := ast.Unparen(x).(*ast.Ident)
		if !ok {
			return 0, false
		}
		idx, ok := paramIdx[e.objOf(id)]
		return idx, ok
	}

	released := make(map[int]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if idx, ok := paramOf(x.Value); ok && e.tracksChan(x.Chan) {
				released[idx] = true
			}
		case *ast.CallExpr:
			if r := e.t.Release(e.pass, x); r != nil {
				if idx, ok := paramOf(r); ok {
					released[idx] = true
				}
				return true
			}
			post := e.t.Post != nil && e.t.Post(e.pass, x)
			ce := e.calleeEffect(x)
			for ai, arg := range dataflow.CallArgs(e.g, x) {
				if idx, ok := paramOf(arg); ok && (post && ai > 0 || ce != nil && slices.Contains(ce.ParamRelease, ai)) {
					released[idx] = true
				}
			}
		}
		return true
	})
	eff.ParamRelease = sortedSet(released)

	// ParamBorrowed: tracked parameters whose every use keeps custody
	// with the caller. A release supersedes a borrow.
	if len(paramIdx) > 0 {
		parent := Parents(body)
		escaped := make(map[int]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if idx, ok := paramIdx[e.objOf(id)]; ok && !e.borrowUse(parent, id) {
					escaped[idx] = true
				}
			}
			return true
		})
		for i, p := range params {
			if e.t.Tracks(p.Type()) && !released[i] && !escaped[i] {
				eff.ParamBorrowed = append(eff.ParamBorrowed, i)
			}
		}
	}

	// AcquiresResult: a return whose expression is an acquire or an
	// acquired local.
	fresh := make(map[int]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // nested functions own their own effects
		case *ast.ReturnStmt:
			for j, res := range x.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if acquired[e.objOf(id)] {
						fresh[j] = true
					}
				} else if ok, _ := e.acquire(res, j); ok {
					fresh[j] = true
				}
			}
		}
		return true
	})
	eff.AcquiresResult = sortedSet(fresh)
	return eff
}

// tracksChan reports whether x is a channel of a tracked type.
func (e *engine) tracksChan(x ast.Expr) bool {
	t := e.pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	return ok && e.t.Tracks(ch.Elem())
}

func sortedSet(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Parents maps every node in root to its syntactic parent.
func Parents(root ast.Node) map[ast.Node]ast.Node {
	parent := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parent
}

// borrowUse reports whether this use of a tracked parameter keeps
// custody with the caller: comparisons, methods on the object itself,
// rebinding it to another tracked local, releases already counted, or
// passing it to a callee that itself releases or only borrows. Any
// other use (return, store, capture, unknown callee) escapes.
func (e *engine) borrowUse(parent map[ast.Node]ast.Node, id *ast.Ident) bool {
	var n ast.Node = id
	p := parent[n]
	for {
		pe, ok := p.(*ast.ParenExpr)
		if !ok {
			break
		}
		n, p = pe, parent[pe]
	}
	switch x := p.(type) {
	case *ast.AssignStmt:
		for i, lhs := range x.Lhs {
			if lhs == n {
				return true // rebinding the name itself
			}
			if len(x.Lhs) == len(x.Rhs) && x.Rhs[i] == n {
				if lid, ok := lhs.(*ast.Ident); ok && (lid.Name == "_" || e.lhsObj(lid) != nil) {
					return true // discarded, or a local alias the closure tracks
				}
			}
		}
		return false
	case *ast.SendStmt:
		return x.Value == n && e.tracksChan(x.Chan)
	case *ast.BinaryExpr:
		return true
	case *ast.SelectorExpr:
		// x.Method(...) only touches the object's memory; a method value
		// or a field access escapes.
		call, ok := parent[x].(*ast.CallExpr)
		if x.X != n || !ok || call.Fun != ast.Node(x) {
			return false
		}
		_, isMethod := e.pass.TypesInfo.Selections[x]
		return isMethod
	case *ast.CallExpr:
		if x.Fun == n {
			return false
		}
		if r := e.t.Release(e.pass, x); r != nil && ast.Unparen(r) == n {
			return true
		}
		for ai, arg := range dataflow.CallArgs(e.g, x) {
			if arg != n {
				continue
			}
			if ai > 0 && e.t.Post != nil && e.t.Post(e.pass, x) {
				return true
			}
			if ce := e.calleeEffect(x); ce != nil {
				return slices.Contains(ce.ParamRelease, ai) || slices.Contains(ce.ParamBorrowed, ai)
			}
			return false
		}
	}
	return false
}
