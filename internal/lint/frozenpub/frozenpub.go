// Package frozenpub enforces frozen-after-publish on atomically
// published objects.
//
// The lock-free snapshot idiom — build an object privately, publish it
// with atomic.Pointer.Store (or Value.Store / Swap / CompareAndSwap),
// readers Load and walk it without locks — is only sound if the object
// never changes after the Store: the atomic gives readers a happens-
// before edge to writes *preceding* the publish, and nothing for writes
// after it. A post-publish write through a retained alias is a data race
// that -race only catches if a reader happens to hit the torn field
// under test. frozenpub catches it statically: within a function it
// tracks which locals have been published (including through simple
// aliases created by ident-to-ident assignment) with a path-sensitive
// walk — branches fork the state, loop bodies are walked twice so a
// publish on iteration n flags the write on iteration n+1 — and reports
// any store through a published base.
//
// Deliberate post-publish mutation (single-writer fields readers are
// specified to tolerate, e.g. monotonic counters) is annotated at the
// write:
//
//	//cyclolint:pubsafe readers tolerate monotonic updates of this field
package frozenpub

import (
	"go/ast"
	"go/token"
	"go/types"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow"
)

// Analyzer flags writes through pointers that were already atomically
// published.
var Analyzer = &analysis.Analyzer{
	Name: "frozenpub",
	Doc:  "an object published via atomic.Pointer/atomic.Value Store must not be written afterwards; annotate //cyclolint:pubsafe for sanctioned mutation",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.FuncHasDirective(fn, "pubsafe") {
				continue
			}
			c := &checker{pass: pass, file: file, reported: make(map[token.Pos]bool)}
			if c.hasGoto(fn.Body) {
				continue
			}
			c.collectAliases(fn.Body)
			c.block(fn.Body, make(state))
		}
	}
}

// state maps a local variable to the position where the object it
// points to was published.
type state map[types.Object]token.Pos

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge unions o into s (first publish position wins).
func (s state) merge(o state) {
	for k, v := range o {
		if _, ok := s[k]; !ok {
			s[k] = v
		}
	}
}

type checker struct {
	pass *analysis.Pass
	file *ast.File
	// aliases holds bidirectional ident-to-ident assignment edges,
	// collected flow-insensitively: publishing p freezes everything in
	// p's alias closure.
	aliases  map[types.Object][]types.Object
	reported map[token.Pos]bool
}

func (c *checker) hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}

// collectAliases records a ↔ b for every `a := b` / `a = b` between
// pointer-typed identifiers, ignoring func literals (their own walk is
// out of scope).
func (c *checker) collectAliases(body *ast.BlockStmt) {
	c.aliases = make(map[types.Object][]types.Object)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			l := c.objOf(lhs)
			r := c.objOf(as.Rhs[i])
			if l != nil && r != nil && l != r {
				c.aliases[l] = append(c.aliases[l], r)
				c.aliases[r] = append(c.aliases[r], l)
			}
		}
		return true
	})
}

// closure returns obj plus everything reachable over alias edges.
func (c *checker) closure(obj types.Object) []types.Object {
	seen := map[types.Object]bool{obj: true}
	work := []types.Object{obj}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, next := range c.aliases[o] {
			if !seen[next] {
				seen[next] = true
				work = append(work, next)
			}
		}
	}
	out := make([]types.Object, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	return out
}

// objOf resolves an expression to the local pointer variable it denotes
// (unwrapping parens and a leading &).
func (c *checker) objOf(e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// publishCall classifies a call as an atomic publish, returning the
// published argument expression, or nil.
func (c *checker) publishCall(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	argIdx := 0
	switch sel.Sel.Name {
	case "Store", "Swap":
	case "CompareAndSwap":
		argIdx = 1
	default:
		return nil
	}
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	recv := selection.Recv()
	if !dataflow.IsNamedType(recv, "sync/atomic", "Pointer") &&
		!dataflow.IsNamedType(recv, "sync/atomic", "Value") {
		return nil
	}
	if argIdx >= len(call.Args) {
		return nil
	}
	return call.Args[argIdx]
}

// scanPublishes marks publish calls appearing anywhere in e.
func (c *checker) scanPublishes(e ast.Node, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if arg := c.publishCall(call); arg != nil {
			if obj := c.objOf(arg); obj != nil {
				for _, o := range c.closure(obj) {
					if _, done := st[o]; !done {
						st[o] = call.Pos()
					}
				}
			}
		}
		return true
	})
}

// writeBase resolves the base local variable a store writes through:
// p.f = v, p.f.g = v, *p = v, p.f[i] = v.
func (c *checker) writeBase(lhs ast.Expr) types.Object {
	for {
		lhs = ast.Unparen(lhs)
		switch x := lhs.(type) {
		case *ast.SelectorExpr:
			// Only follow when this is a field selection (a write through
			// the pointer), not a package-qualified name.
			if sel, ok := c.pass.TypesInfo.Selections[x]; !ok || sel.Kind() != types.FieldVal {
				return nil
			}
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.Ident:
			return c.objOf(x)
		default:
			return nil
		}
	}
}

func (c *checker) checkWrite(as *ast.AssignStmt, st state) {
	for _, lhs := range as.Lhs {
		// A plain `p = …` rebinds the variable to a new object.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := c.objOf(id); obj != nil {
				delete(st, obj)
			}
			continue
		}
		base := c.writeBase(lhs)
		if base == nil {
			continue
		}
		pub, ok := st[base]
		if !ok || c.reported[as.Pos()] {
			continue
		}
		if c.pass.HasDirective(c.file, as, "pubsafe") {
			continue
		}
		c.reported[as.Pos()] = true
		c.pass.Reportf(as.Pos(),
			"%s is written after being atomically published at %s; readers Load without locks, so post-publish writes race — build the object fully before Store, or annotate //cyclolint:pubsafe with the single-writer argument",
			base.Name(), c.pass.Fset.Position(pub).String())
	}
}

// block walks a statement list, threading st.
func (c *checker) block(b *ast.BlockStmt, st state) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		c.stmt(s, st)
	}
}

func (c *checker) stmt(s ast.Stmt, st state) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			c.scanPublishes(r, st)
		}
		c.checkWrite(x, st)
		// Aliasing after publish: q := p freezes q too (already covered
		// by the flow-insensitive edges, but keep the dynamic direction
		// exact for rebound variables).
		for i, lhs := range x.Lhs {
			if i >= len(x.Rhs) {
				break
			}
			l, r := c.objOf(lhs), c.objOf(x.Rhs[i])
			if l != nil && r != nil {
				if pub, ok := st[r]; ok {
					st[l] = pub
				}
			}
		}
	case *ast.ExprStmt:
		c.scanPublishes(x.X, st)
	case *ast.IncDecStmt:
		if base := c.writeBase(x.X); base != nil {
			if pub, ok := st[base]; ok && !c.reported[x.Pos()] && !c.pass.HasDirective(c.file, x, "pubsafe") {
				c.reported[x.Pos()] = true
				c.pass.Reportf(x.Pos(),
					"%s is written after being atomically published at %s; readers Load without locks, so post-publish writes race — build the object fully before Store, or annotate //cyclolint:pubsafe with the single-writer argument",
					base.Name(), c.pass.Fset.Position(pub).String())
			}
		}
	case *ast.IfStmt:
		if x.Init != nil {
			c.stmt(x.Init, st)
		}
		thenSt := st.clone()
		// `if x.CompareAndSwap(old, p)`: the publish happens only on the
		// true path — a failed CAS leaves the candidate private, so the
		// retry loop may legitimately mutate it.
		if call, ok := ast.Unparen(x.Cond).(*ast.CallExpr); ok && c.publishCall(call) != nil {
			c.scanPublishes(x.Cond, thenSt)
		} else {
			c.scanPublishes(x.Cond, st)
			thenSt = st.clone()
		}
		c.block(x.Body, thenSt)
		elseSt := st.clone()
		if x.Else != nil {
			c.stmt(x.Else, elseSt)
		}
		// A branch that cannot fall through contributes nothing to the
		// join (its publishes died with the return/break).
		if !terminates(x.Body) {
			st.merge(thenSt)
		}
		if x.Else == nil || !stmtTerminates(x.Else) {
			st.merge(elseSt)
		}
	case *ast.BlockStmt:
		c.block(x, st)
	case *ast.ForStmt:
		if x.Init != nil {
			c.stmt(x.Init, st)
		}
		c.scanPublishes(x.Cond, st)
		// Twice: a publish on iteration n freezes writes on iteration n+1.
		for i := 0; i < 2; i++ {
			body := st.clone()
			c.block(x.Body, body)
			if x.Post != nil {
				c.stmt(x.Post, body)
			}
			st.merge(body)
		}
	case *ast.RangeStmt:
		c.scanPublishes(x.X, st)
		for i := 0; i < 2; i++ {
			body := st.clone()
			c.block(x.Body, body)
			st.merge(body)
		}
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.stmt(x.Init, st)
		}
		c.scanPublishes(x.Tag, st)
		c.clauses(x.Body, st)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			c.stmt(x.Init, st)
		}
		c.clauses(x.Body, st)
	case *ast.SelectStmt:
		c.clauses(x.Body, st)
	case *ast.LabeledStmt:
		c.stmt(x.Stmt, st)
	case *ast.DeferStmt:
		// Deferred calls run at return, after any publish in the body:
		// treat their argument evaluation now, ignore the call itself.
		for _, a := range x.Call.Args {
			c.scanPublishes(a, st)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			c.scanPublishes(r, st)
		}
	case *ast.SendStmt:
		c.scanPublishes(x.Value, st)
	case *ast.GoStmt:
		for _, a := range x.Call.Args {
			c.scanPublishes(a, st)
		}
	case *ast.DeclStmt:
		c.scanPublishes(x.Decl, st)
	}
}

// terminates reports whether a block cannot fall through.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return x.Tok == token.BREAK || x.Tok == token.CONTINUE
	case *ast.BlockStmt:
		return terminates(x)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(x.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			return id.Name == "panic"
		}
		return false
	}
	return false
}

// clauses walks each case body against a clone of st and merges.
func (c *checker) clauses(body *ast.BlockStmt, st state) {
	if body == nil {
		return
	}
	var merged []state
	for _, cl := range body.List {
		cs := st.clone()
		var body []ast.Stmt
		switch x := cl.(type) {
		case *ast.CaseClause:
			for _, e := range x.List {
				c.scanPublishes(e, cs)
			}
			body = x.Body
		case *ast.CommClause:
			if x.Comm != nil {
				c.stmt(x.Comm, cs)
			}
			body = x.Body
		}
		for _, s := range body {
			c.stmt(s, cs)
		}
		if len(body) == 0 || !stmtTerminates(body[len(body)-1]) {
			merged = append(merged, cs)
		}
	}
	for _, m := range merged {
		st.merge(m)
	}
}
