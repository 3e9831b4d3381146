// Package hotpathalloc enforces the zero-allocation contract on
// annotated hot-path functions.
//
// The repo's performance story rests on a handful of functions running
// allocation-free in steady state: the ring's receive/stage/forward
// path, the transports' post and completion paths, and the metrics/trace
// event emitters (whose sub-10ns budgets the benchmark guards prove).
// Benchmarks only catch regressions on the paths they exercise; this
// analyzer catches them at compile time on every path of a function
// annotated
//
//	//cyclolint:hotpath
//
// in its doc comment. Inside such a function the analyzer flags the
// allocating constructs: make/new, heap-bound composite literals
// (slice/map literals and &T{}), closures, go statements, fmt.*,
// time.After, non-constant string concatenation, string↔[]byte
// conversions, appends that are not amortized by an `x = x[:0]` reset in
// the same function, boxing a non-pointer value into an interface, and
// calls to variadic functions (the argument slice allocates).
//
// Error and slow branches inside a hot function are excluded by
// annotating the statement:
//
//	//cyclolint:coldpath <why this branch is off the hot path>
package hotpathalloc

import (
	"go/ast"
	"go/types"

	"cyclojoin/internal/lint/analysis"
)

// Analyzer flags allocating constructs in //cyclolint:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions annotated //cyclolint:hotpath must not contain allocating constructs",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.FuncHasDirective(fn, "hotpath") {
				continue
			}
			c := &checker{pass: pass, file: file, fn: fn, resets: findResets(pass, fn.Body)}
			c.stmts(fn.Body.List)
		}
	}
}

// findResets collects the rendered form of every lvalue the function
// gives amortized capacity, making a later append(x, ...) allocation-free
// in steady state:
//
//   - x = x[:0] — the idiomatic reuse reset;
//   - x := make([]T, len, cap) — an explicit capacity preallocation (the
//     make itself is still reported; a setup statement carries its own
//     //cyclolint:coldpath justification);
//   - x = slices.Grow(x, n) — a guaranteed-capacity reslice.
func findResets(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	resets := make(map[string]bool)
	record := func(lhs, rhs ast.Expr) {
		switch x := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr:
			if x.High == nil || x.Low != nil {
				return
			}
			lit, ok := x.High.(*ast.BasicLit)
			if !ok || lit.Value != "0" {
				return
			}
			if types.ExprString(lhs) == types.ExprString(x.X) {
				resets[types.ExprString(x.X)] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" && len(x.Args) == 3 {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					resets[types.ExprString(lhs)] = true
				}
				return
			}
			if pkg, name := calleePkgFunc(pass, x); pkg == "slices" && name == "Grow" &&
				len(x.Args) == 2 && types.ExprString(x.Args[0]) == types.ExprString(lhs) {
				resets[types.ExprString(lhs)] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch as := n.(type) {
		case *ast.AssignStmt:
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Lhs {
					record(as.Lhs[i], as.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(as.Names) == len(as.Values) {
				for i := range as.Names {
					record(as.Names[i], as.Values[i])
				}
			}
		}
		return true
	})
	return resets
}

type checker struct {
	pass   *analysis.Pass
	file   *ast.File
	fn     *ast.FuncDecl
	resets map[string]bool
}

// stmts walks a statement list, skipping //cyclolint:coldpath subtrees.
func (c *checker) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	if s == nil || c.pass.HasDirective(c.file, s, "coldpath") {
		return
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		c.stmts(st.List)
	case *ast.IfStmt:
		c.stmt(st.Init)
		c.expr(st.Cond)
		c.stmt(st.Body)
		c.stmt(st.Else)
	case *ast.ForStmt:
		c.stmt(st.Init)
		c.expr(st.Cond)
		c.stmt(st.Post)
		c.stmt(st.Body)
	case *ast.RangeStmt:
		c.expr(st.X)
		c.stmt(st.Body)
	case *ast.SwitchStmt:
		c.stmt(st.Init)
		c.expr(st.Tag)
		c.stmt(st.Body)
	case *ast.TypeSwitchStmt:
		c.stmt(st.Init)
		c.stmt(st.Assign)
		c.stmt(st.Body)
	case *ast.SelectStmt:
		c.stmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			c.expr(e)
		}
		c.stmts(st.Body)
	case *ast.CommClause:
		c.stmt(st.Comm)
		c.stmts(st.Body)
	case *ast.LabeledStmt:
		c.stmt(st.Stmt)
	case *ast.ExprStmt:
		c.expr(st.X)
	case *ast.SendStmt:
		c.expr(st.Chan)
		c.expr(st.Value)
		c.boxing(st.Value, chanElem(c.pass, st.Chan))
	case *ast.AssignStmt:
		c.assign(st)
	case *ast.ReturnStmt:
		c.ret(st)
	case *ast.DeclStmt:
		c.declStmt(st)
	case *ast.GoStmt:
		c.pass.Reportf(st.Pos(), "hot path: go statement allocates a goroutine; spawn at wiring time or annotate //cyclolint:coldpath")
	case *ast.DeferStmt:
		// Open-coded defers are allocation-free; check the call itself.
		c.expr(st.Call)
	case *ast.IncDecStmt:
		c.expr(st.X)
	}
}

func (c *checker) declStmt(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, v := range vs.Values {
			c.expr(v)
			if len(vs.Names) == len(vs.Values) {
				if t, ok := c.pass.TypesInfo.Defs[vs.Names[i]]; ok && t != nil {
					c.boxingType(v, t.Type())
				}
			}
		}
	}
}

func (c *checker) assign(as *ast.AssignStmt) {
	for _, r := range as.Rhs {
		c.expr(r)
	}
	for _, l := range as.Lhs {
		c.expr(l)
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		if tv, ok := c.pass.TypesInfo.Types[as.Lhs[i]]; ok && tv.Type != nil {
			c.boxingType(as.Rhs[i], tv.Type)
		}
		// String += concatenation allocates like +.
		if as.Tok.String() == "+=" && isString(c.pass, as.Lhs[i]) {
			c.pass.Reportf(as.Pos(), "hot path: string concatenation allocates")
		}
	}
}

func (c *checker) ret(rs *ast.ReturnStmt) {
	for _, r := range rs.Results {
		c.expr(r)
	}
	sig, ok := c.pass.TypesInfo.Defs[c.fn.Name].(*types.Func)
	if !ok || len(rs.Results) != sig.Type().(*types.Signature).Results().Len() {
		return
	}
	results := sig.Type().(*types.Signature).Results()
	for i, r := range rs.Results {
		c.boxingType(r, results.At(i).Type())
	}
}

// expr recursively checks one expression subtree.
func (c *checker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		c.call(x)
	case *ast.FuncLit:
		c.pass.Reportf(x.Pos(), "hot path: closure literal may allocate (captured variables escape); hoist it to wiring time or annotate //cyclolint:coldpath")
	case *ast.CompositeLit:
		c.composite(x)
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			if _, ok := x.X.(*ast.CompositeLit); ok {
				c.pass.Reportf(x.Pos(), "hot path: &composite literal escapes to the heap; preallocate at wiring time or annotate //cyclolint:coldpath")
				return
			}
		}
		c.expr(x.X)
	case *ast.BinaryExpr:
		c.expr(x.X)
		c.expr(x.Y)
		if x.Op.String() == "+" && isString(c.pass, x) && !isConstant(c.pass, x) {
			c.pass.Reportf(x.Pos(), "hot path: string concatenation allocates")
		}
	case *ast.ParenExpr:
		c.expr(x.X)
	case *ast.StarExpr:
		c.expr(x.X)
	case *ast.SelectorExpr:
		c.expr(x.X)
	case *ast.IndexExpr:
		c.expr(x.X)
		c.expr(x.Index)
	case *ast.SliceExpr:
		c.expr(x.X)
		c.expr(x.Low)
		c.expr(x.High)
		c.expr(x.Max)
	case *ast.TypeAssertExpr:
		c.expr(x.X)
	case *ast.KeyValueExpr:
		c.expr(x.Key)
		c.expr(x.Value)
	}
}

func (c *checker) composite(lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		c.expr(elt)
	}
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		c.pass.Reportf(lit.Pos(), "hot path: slice literal allocates; preallocate at wiring time or annotate //cyclolint:coldpath")
	case *types.Map:
		c.pass.Reportf(lit.Pos(), "hot path: map literal allocates; preallocate at wiring time or annotate //cyclolint:coldpath")
	}
}

func (c *checker) call(call *ast.CallExpr) {
	c.expr(call.Fun)
	for _, a := range call.Args {
		c.expr(a)
	}
	tv := c.pass.TypesInfo.Types[call.Fun]
	switch {
	case tv.IsType():
		c.conversion(call, tv.Type)
		return
	case tv.IsBuiltin():
		c.builtin(call)
		return
	}
	if pkg, name := calleePkgFunc(c.pass, call); pkg != "" {
		if pkg == "fmt" {
			c.pass.Reportf(call.Pos(), "hot path: fmt.%s allocates (formatting and boxing); annotate //cyclolint:coldpath if this is an error branch", name)
			return
		}
		if pkg == "time" && name == "After" {
			c.pass.Reportf(call.Pos(), "hot path: time.After allocates a timer that lingers until it fires; use a reusable time.Timer")
			return
		}
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	c.callBoxing(call, sig)
}

// callBoxing flags concrete non-pointer values passed to interface
// parameters, and variadic calls (the ...args slice allocates).
func (c *checker) callBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(n - 1).Type() // arg is already a slice
			} else {
				pt = params.At(n - 1).Type().(*types.Slice).Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		c.boxingType(arg, pt)
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= n {
		c.pass.Reportf(call.Pos(), "hot path: call to variadic function allocates the argument slice; use a fixed-arity helper or annotate //cyclolint:coldpath")
	}
}

func (c *checker) builtin(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	switch id.Name {
	case "make":
		c.pass.Reportf(call.Pos(), "hot path: make allocates; preallocate at wiring time or annotate //cyclolint:coldpath")
	case "new":
		c.pass.Reportf(call.Pos(), "hot path: new allocates; preallocate at wiring time or annotate //cyclolint:coldpath")
	case "append":
		if len(call.Args) > 0 && c.resets[types.ExprString(call.Args[0])] {
			return // amortized by an x = x[:0] reset in this function
		}
		c.pass.Reportf(call.Pos(), "hot path: append may grow the backing array; reset the slice with x = x[:0] in this function, preallocate, or annotate //cyclolint:coldpath")
	}
}

func (c *checker) conversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if isConstant(c.pass, arg) {
		return
	}
	from := c.pass.TypesInfo.Types[arg].Type
	if from == nil {
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if isStringType(toU) && isByteOrRuneSlice(fromU) {
		c.pass.Reportf(call.Pos(), "hot path: string(...) conversion copies and allocates")
	}
	if isByteOrRuneSlice(toU) && isStringType(fromU) {
		c.pass.Reportf(call.Pos(), "hot path: []byte/[]rune(string) conversion copies and allocates")
	}
	// A conversion to an interface type boxes like an assignment.
	c.boxingType(arg, to)
}

// boxing flags arg if assigning it to a target of type pt would box a
// concrete non-pointer value into an interface.
func (c *checker) boxing(arg ast.Expr, pt types.Type) {
	c.boxingType(arg, pt)
}

func (c *checker) boxingType(arg ast.Expr, pt types.Type) {
	if pt == nil {
		return
	}
	if _, ok := pt.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	at := tv.Type
	if at == types.Typ[types.UntypedNil] {
		return
	}
	if _, ok := at.Underlying().(*types.Interface); ok {
		return
	}
	// Word-sized reference kinds fit the interface data word directly.
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	if tv.Value != nil {
		// Constants convert at compile time into read-only data.
		return
	}
	c.pass.Reportf(arg.Pos(), "hot path: boxing %s into an interface allocates; pass a pointer, avoid the interface, or annotate //cyclolint:coldpath", at)
}

// ---- small type helpers ----

func chanElem(pass *analysis.Pass, ch ast.Expr) types.Type {
	tv, ok := pass.TypesInfo.Types[ch]
	if !ok || tv.Type == nil {
		return nil
	}
	c, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return nil
	}
	return c.Elem()
}

func calleePkgFunc(pass *analysis.Pass, call *ast.CallExpr) (pkg, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type.Underlying())
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isConstant(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
