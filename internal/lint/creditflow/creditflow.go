// Package creditflow verifies conservation of ring send-credit tokens.
//
// The ring's flow control is a closed credit economy: a node may only
// post a send once it holds a free send buffer, and the pool of those
// buffers — ringq.MPMC[*rdma.Buffer] — IS the credit ledger. Every
// TryPop from a credit pool mints an obligation: on every path the
// token must go back (TryPush to a pool), to the transport (PostSend /
// PostRecv — the completion reaper reposts it), or to another owner via
// an explicit handoff. A path that drops the local
// leaks a credit; the pool shrinks silently and the ring wedges under
// backpressure exactly one slot at a time — the classic failure of the
// recovery and flush paths that tests rarely drive. Pushing the same
// token twice is worse: the pool hands the buffer to two senders.
//
// The package is a table for the typestate engine
// (internal/lint/dataflow/typestate), which simulates each function
// path-sensitively: tokens are Held/Released per path, merges keep the
// leakiest state, `buf, ok := pool.TryPop()` pairs the bool so
// failed-acquire branches hold nothing, and custody effects of callees
// cross package boundaries as facts. Leaks at a return get a mechanical
// suggested fix reinserting the TryPush when the pool expression is
// visible at the acquire.
//
// Deliberate exceptions are annotated at the statement:
//
//	//cyclolint:creditsafe <justification>
package creditflow

import (
	"go/ast"
	"go/types"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/bufown"
	"cyclojoin/internal/lint/dataflow/typestate"
)

// ringqPkg declares the MPMC pool type.
const ringqPkg = "cyclojoin/internal/ringq"

// Analyzer flags send-credit tokens that leak or double-release.
var Analyzer = &analysis.Analyzer{
	Name:      "creditflow",
	Doc:       "a send credit popped from a ringq.MPMC[*rdma.Buffer] pool must be returned (TryPush, post, or handoff) on every path, exactly once",
	UsesFacts: true,
	Run:       func(pass *analysis.Pass) { typestate.Run(pass, table) },
}

var table = &typestate.Table{
	Directive: "creditsafe",
	Tracks:    bufown.IsBufferPtr,
	Acquire: func(pass *analysis.Pass, e ast.Expr, slot int) (ast.Expr, bool) {
		// pool.TryPop(): the pool is where a fix pushes the credit back.
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || slot != 0 {
			return nil, false
		}
		return poolMethod(pass, call, "TryPop")
	},
	Release: func(pass *analysis.Pass, n ast.Node) ast.Expr {
		// pool.TryPush(x) returns x's credit.
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 {
			if _, ok := poolMethod(pass, call, "TryPush"); ok {
				return call.Args[0]
			}
		}
		return nil
	},
	Guard: func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == types.Bool
	},
	// A post hands the credit to the transport; the completion reaper
	// owns the repost.
	Post: bufown.IsPostCall,
	Msg: typestate.Messages{
		Held:          "send credit %s (popped at %s) is not returned on this path; push it back to its pool before returning, or annotate //cyclolint:creditsafe with the custody argument",
		BackEdge:      "send credit %s is still held at the loop's back edge; return it before the iteration ends, or annotate //cyclolint:creditsafe",
		Overwrite:     "send credit %s (popped at %s) is overwritten while still held",
		DoubleRelease: "send credit %s is returned twice on this path (previous return at %s); the duplicate credit hands the buffer to two senders",
		Fix:           "return the credit %s to its pool",
		FixText:       "%s.TryPush(%s)",
	},
}

// poolMethod matches a call of the named method on a credit pool,
// returning the pool expression.
func poolMethod(pass *analysis.Pass, call *ast.CallExpr, name string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal || !isCreditPool(selection.Recv()) {
		return nil, false
	}
	return sel.X, true
}

// isCreditPool reports whether t is ringq.MPMC[*rdma.Buffer] (possibly
// behind a pointer) — the send-credit ledger type.
func isCreditPool(t types.Type) bool {
	if !analysis.IsNamed(t, ringqPkg, "MPMC") {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	args := t.(*types.Named).TypeArgs()
	return args.Len() == 1 && bufown.IsBufferPtr(args.At(0))
}
