// Package waitcycle reports static wait-for cycles between goroutine
// origins, built on the dataflow IR's blocking-edge vocabulary.
//
// It is a table over the dataflow origin engine. Every function's
// blocking and releasing operations — channel sends, receives and
// closes, ringq.Waiter parks and signals, WaitGroup waits and dones — are
// ops on their resource, in source order; the engine attributes them to
// goroutine origins through helpers, `go` launches and the facts, and
// keeps their order, select group and loop within each frame. A
// diagnostic fires when two origins each block on an operation whose
// every release lies past the other origin's block: origin A parks at a
// point only B can release, while B parks at a point only A can release.
//
// The reachability rules are deliberately optimistic — the analyzer
// only claims a cycle when the release structure is visible and ordered
// against it:
//
//   - a release in a third origin, a different call frame, or a select
//     arm always counts as reachable;
//   - a release sharing a for-loop with the peer's blocking point counts
//     as reachable (the eventcount park/signal ring pattern interleaves
//     across iterations);
//   - a release ordered before the peer's blocking point in the same
//     frame counts as reachable — it may have banked the wakeup — except
//     a channel rendezvous in the blocked op's own origin, which cannot
//     satisfy a send/recv that had not started yet;
//   - an operation on an untrackable resource (a timeout channel, an
//     interface-typed queue) makes its whole select progressable, and a
//     blocked op with no visible release at all is assumed released
//     elsewhere.
//
// Sanctioned blocking points are annotated with the progress argument,
// at the operation, on the select statement, or on the function's doc
// comment:
//
//	//cyclolint:waitsafe the peer drains acks before data in recovery
package waitcycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow"
)

// Analyzer reports pairs of goroutine origins statically ordered into a
// mutual wait.
var Analyzer = &analysis.Analyzer{
	Name:      "waitcycle",
	Doc:       "two goroutine origins that each block on an operation released only past the other's block form a static wait cycle; reorder the hand-off, buffer the channel, or annotate //cyclolint:waitsafe with the progress argument",
	UsesFacts: true,
	Run: func(pass *analysis.Pass) error {
		escapes := make(map[*ast.SelectStmt]bool)
		return dataflow.RunTable(pass, &dataflow.Table[op]{
			Directive: "waitsafe", Params: true,
			Visit: func(e *dataflow.Engine[op], c *dataflow.Ctx, n ast.Node) bool {
				visit(e, c, n, escapes)
				return true
			},
			Check: check,
		})
	},
}

// op is the table's payload: the blocking-edge mode (dataflow.Mode*),
// and NB for an op that can release a peer but never parks — an arm of a
// select that a default or an untrackable arm keeps from blocking. An op
// excused by //cyclolint:waitsafe (Safe) is a releaser only, too.
type op struct {
	Mode string `json:"mode"`
	NB   bool   `json:"nb,omitempty"`
}

// attrOp is one operation attributed to a single origin, in its frame:
// its function and launch label, the sequential unit seq orders.
type attrOp struct {
	res, mode, origin, frame string
	seq                      int64
	group, loop              string
	pos                      token.Pos
	site                     string
	nonBlock, suppressed     bool
}

// visit recognizes the blocking and releasing operations.
func visit(e *dataflow.Engine[op], c *dataflow.Ctx, n ast.Node, escapes map[*ast.SelectStmt]bool) {
	emit := func(mode string, res ast.Expr, at ast.Node, pos token.Pos) {
		nb := false
		if c.Select != nil {
			esc, ok := escapes[c.Select]
			if !ok {
				esc = selectEscapes(e, c)
				escapes[c.Select] = esc
			}
			nb = esc
		}
		e.Emit(c, at, res, pos, op{Mode: mode, NB: nb})
	}
	switch x := n.(type) {
	case *ast.SendStmt:
		emit(dataflow.ModeSend, x.Chan, x, x.Pos())
	case *ast.UnaryExpr:
		if x.Op != token.ARROW {
			return
		}
		if w, ok := dataflow.WaiterPark(e.G, x); ok {
			emit(dataflow.ModePark, w, x, x.Pos())
		} else {
			emit(dataflow.ModeRecv, x.X, x, x.Pos())
		}
	case *ast.RangeStmt:
		if t := e.G.Info.TypeOf(x.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				emit(dataflow.ModeRecv, x.X, x, x.X.Pos())
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
			if _, builtin := e.G.Info.Uses[id].(*types.Builtin); builtin {
				emit(dataflow.ModeClose, x.Args[0], x, x.Pos())
				return
			}
		}
		if res, mode, ok := dataflow.SyncCall(e.G, x); ok {
			emit(mode, res, x, x.Pos())
		}
	}
}

// selectEscapes reports whether c's select can always progress: it has a
// default arm, or an arm on an untrackable resource (a timeout channel,
// a call result).
func selectEscapes(e *dataflow.Engine[op], c *dataflow.Ctx) bool {
	for _, cl := range c.Select.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true
		}
		ch := commChan(cc.Comm)
		if u, ok := ch.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			ch = u.X
		}
		if ch == nil {
			continue
		}
		if _, isPark := dataflow.WaiterC(e.G, ch); !isPark {
			if loc, idx := dataflow.ResourceIdent(e.G, e.ParamsOf(c.Fn), ch); loc == "" && idx < 0 {
				return true
			}
		}
	}
	return false
}

// commChan extracts the channel expression of a comm clause, nil when it
// has none.
func commChan(comm ast.Stmt) ast.Expr {
	switch s := comm.(type) {
	case *ast.SendStmt:
		return s.Chan
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u
			}
		}
	}
	return nil
}

// ---- the wait-cycle check ----

// blockGroup is one point where an origin may park: a standalone
// blocking op, or the arms of one select.
type blockGroup struct {
	origin, frame string
	seq           int64
	loop          string
	ops           []*attrOp
	member        map[*attrOp]bool
	nonBlock      bool
	suppressed    bool
}

func check(e *dataflow.Engine[op], attrs []dataflow.Attr[op]) {
	attributed := make([]*attrOp, len(attrs))
	for i, a := range attrs {
		attributed[i] = &attrOp{
			res: a.Res, mode: a.P.Mode, origin: a.Origin, frame: a.Fn.Key() + "\x00" + a.Label,
			seq: a.Seq, group: a.Group, loop: a.Loop, pos: a.Pos, site: a.Site,
			nonBlock: a.P.NB, suppressed: a.Safe,
		}
	}
	byRes := make(map[string][]*attrOp)
	for _, a := range attributed {
		byRes[a.res] = append(byRes[a.res], a)
	}
	groups := blockGroups(attributed)
	type finding struct {
		pos token.Pos
		key string
		msg string
	}
	var findings []finding
	seen := make(map[string]bool)
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			a, b := groups[i], groups[j]
			if a.origin == b.origin || a.suppressed || b.suppressed {
				continue
			}
			if !stuck(a, b, byRes) || !stuck(b, a, byRes) {
				continue
			}
			ra, rb := a.ops[0], b.ops[0]
			if rb.pos < ra.pos {
				ra, rb = rb, ra
				a, b = b, a
			}
			key := ra.site + "|" + rb.site
			if seen[key] {
				continue
			}
			seen[key] = true
			findings = append(findings, finding{
				pos: ra.pos,
				key: key,
				msg: "static wait cycle: " + a.origin + " blocked at " + ra.mode + " of " + ra.res +
					" (" + ra.site + ") and " + b.origin + " blocked at " + rb.mode + " of " + rb.res +
					" (" + rb.site + ") can each be released only past the other's block — reorder the hand-off, buffer the channel, or annotate //cyclolint:waitsafe with the progress argument",
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].key < findings[j].key
	})
	for _, f := range findings {
		e.Pass.Reportf(f.pos, "%s", f.msg)
	}
}

// blockGroups collects the blocking candidates: grouped select arms and
// standalone parks, excluding the entry origin (external callers park at
// their own risk; origins here are launch sites this package created).
func blockGroups(attributed []*attrOp) []*blockGroup {
	byKey := make(map[string]*blockGroup)
	var order []string
	for _, a := range attributed {
		if !dataflow.BlockingMode(a.mode) || a.origin == dataflow.EntryOrigin {
			continue
		}
		gid := a.group
		if gid == "" {
			gid = "op@" + a.site + "#" + a.mode
		}
		key := a.frame + "\x00" + a.origin + "\x00" + gid
		g, ok := byKey[key]
		if !ok {
			g = &blockGroup{origin: a.origin, frame: a.frame, member: make(map[*attrOp]bool)}
			byKey[key] = g
			order = append(order, key)
		}
		g.ops = append(g.ops, a)
		g.member[a] = true
		g.nonBlock = g.nonBlock || a.nonBlock
		g.suppressed = g.suppressed || a.suppressed
	}
	var out []*blockGroup
	for _, key := range order {
		g := byKey[key]
		if g.nonBlock {
			continue
		}
		sort.Slice(g.ops, func(i, j int) bool { return g.ops[i].seq < g.ops[j].seq })
		g.seq = g.ops[0].seq
		g.loop = g.ops[0].loop
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].frame != out[j].frame {
			return out[i].frame < out[j].frame
		}
		if out[i].origin != out[j].origin {
			return out[i].origin < out[j].origin
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// stuck reports whether group a cannot progress while group b is
// blocked: every arm of a has at least one visible releaser and all of
// them are unreachable.
func stuck(a, b *blockGroup, byRes map[string][]*attrOp) bool {
	for _, op := range a.ops {
		usable, released := 0, false
		for _, r := range byRes[op.res] {
			if r == op || a.member[r] {
				continue // a select cannot release itself
			}
			if !dataflow.Releases(op.mode, r.mode) {
				continue
			}
			usable++
			if b.member[r] || reachable(op, r, a, b) {
				released = true
				break
			}
		}
		if usable == 0 || released {
			return false
		}
	}
	return true
}

// reachable reports whether releaser r can execute while groups a and b
// are blocked (op is the blocked operation of a under test).
func reachable(op, r *attrOp, a, b *blockGroup) bool {
	pivot := b
	if r.origin == a.origin {
		pivot = a
	} else if r.origin != b.origin {
		return true // a third origin is not ordered against either block
	}
	if r.frame != pivot.frame {
		return true // another frame of the same origin: ordering unknown
	}
	if r.loop != "" && r.loop == pivot.loop {
		return true // shared loop: iterations interleave with the block
	}
	if r.seq > pivot.seq {
		return false // strictly behind the blocking point
	}
	// Ordered before the blocking point: the wakeup may be banked (a
	// close is sticky, a Signal or Done persists) — except a channel
	// rendezvous in the blocked op's own origin, which cannot satisfy a
	// send/recv that had not started yet.
	if pivot == a && r.mode != dataflow.ModeClose &&
		(op.mode == dataflow.ModeSend || op.mode == dataflow.ModeRecv) {
		return false
	}
	return true
}
