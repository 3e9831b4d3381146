// Package bufown verifies the lifecycle of registered RDMA buffers:
// acquire → (write) → post → completion → release.
//
// A *rdma.Buffer is pinned, pooled memory. The pools are registered once
// (§III-C of the paper's design: registration is the expensive part), so
// every buffer taken from a free list — `buf := <-n.freeSend` — carries a
// credit that must go somewhere: back on the free list, to the transport
// via PostSend/PostRecv, or to another owner (stored, returned,
// or passed to a function that releases it — tracked via cross-package
// effect facts). A return path that simply drops the local leaks the
// credit; the pool shrinks silently and a restarted node wedges under
// backpressure slots short. These leaks hide in exactly the paths tests
// rarely drive: shutdown selects and encode-failure bailouts.
//
// The package is a table for the typestate engine
// (internal/lint/dataflow/typestate), which simulates each function
// path-sensitively: tracked buffers are Held/Posted/Released per
// control-flow path, merges keep the leakiest state, and deferred
// releases count for every return after them. It reports:
//
//   - a buffer still Held at a return or at a loop's back edge (with a
//     suggested fix reinserting the free-list send when the acquire came
//     from a channel);
//   - a double release (two sends of the same credit corrupt the pool's
//     accounting — the second send duplicates the credit);
//   - a double post without an intervening completion;
//   - access to a posted buffer (SetLen/Data/Bytes) — the transport owns
//     the memory until its completion is reaped.
//
// Custody handoffs the analyzer cannot see locally are the owner's
// contract: storing the buffer in a struct, returning it, or passing it
// to a function with no known release effect all end tracking for that
// path. Deliberate exceptions are annotated at the statement:
//
//	//cyclolint:bufsafe <justification>
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow/typestate"
)

// rdmaPkg declares Buffer, Device and the queue-pair interfaces; the
// implementation itself is exempt.
const rdmaPkg = "cyclojoin/internal/rdma"

// Analyzer flags registered-buffer lifecycle violations.
var Analyzer = &analysis.Analyzer{
	Name:      "bufown",
	Doc:       "a registered *rdma.Buffer credit must be released (free list, post, or handoff) on every path; posted buffers are untouchable until completion",
	UsesFacts: true,
	Run:       func(pass *analysis.Pass) { typestate.Run(pass, table) },
}

var table = &typestate.Table{
	Directive: "bufsafe",
	Skip:      rdmaPkg,
	Tracks:    IsBufferPtr,
	Acquire:   acquire,
	Release:   release,
	Guard: func(t types.Type) bool {
		return types.Identical(t, types.Universe.Lookup("error").Type())
	},
	Post: IsPostCall,
	Reap: isCompletionChan,
	// Methods that touch buffer memory, invalid while posted.
	Access: map[string]bool{"SetLen": true, "Data": true, "Bytes": true},
	Msg: typestate.Messages{
		Held:          "registered buffer %s (acquired at %s) is still held on this return path; release its credit before returning, or annotate //cyclolint:bufsafe with the custody argument",
		BackEdge:      "registered buffer %s is still held at the loop's back edge; release its credit before the iteration ends, or annotate //cyclolint:bufsafe",
		Overwrite:     "registered buffer %s (acquired at %s) is overwritten while its credit is still held",
		DoubleRelease: "registered buffer %s is released twice on this path (previous release at %s); the duplicate credit corrupts the pool",
		DoublePost:    "registered buffer %s is posted twice without an intervening completion (previous post at %s)",
		Access:        "registered buffer %s is accessed (%s) after being posted at %s; the transport owns its memory until the completion is reaped",
		Fix:           "send %s back on its free list",
		FixText:       "%s <- %s",
	},
}

// postMethods transfer custody to the transport until a completion.
var postMethods = map[string]bool{
	"PostRecv": true, "PostSend": true,
}

// IsBufferPtr reports whether t is *rdma.Buffer.
func IsBufferPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && analysis.IsNamed(ptr.Elem(), rdmaPkg, "Buffer")
}

// isBufferChan reports whether t is a channel of *rdma.Buffer.
func isBufferChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	return ok && IsBufferPtr(ch.Elem())
}

// isCompletionChan reports whether t is a channel of rdma.Completion —
// the queue a transport delivers ownership back on.
func isCompletionChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	return ok && analysis.IsNamed(ch.Elem(), rdmaPkg, "Completion")
}

// IsPostCall reports PostRecv/PostSend calls on
// any receiver, as long as some argument is a *rdma.Buffer — this covers
// both the rdma interfaces and concrete transports.
func IsPostCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !postMethods[sel.Sel.Name] {
		return false
	}
	if _, ok := pass.TypesInfo.Selections[sel]; !ok {
		return false
	}
	for _, a := range call.Args {
		if IsBufferPtr(pass.TypesInfo.TypeOf(a)) {
			return true
		}
	}
	return false
}

// acquire matches `<-free` on a buffer channel (releasing means sending
// back on it) and Device.Register's buffer result.
func acquire(pass *analysis.Pass, e ast.Expr, slot int) (ast.Expr, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.ARROW && isBufferChan(pass.TypesInfo.TypeOf(x.X)) {
			return x.X, true
		}
	case *ast.CallExpr:
		if slot == 0 && pass.IsMethodOn(x, rdmaPkg, "Device", "Register") {
			return nil, true
		}
	}
	return nil, false
}

// release matches a send back on a buffer free list.
func release(pass *analysis.Pass, n ast.Node) ast.Expr {
	if s, ok := n.(*ast.SendStmt); ok && isBufferChan(pass.TypesInfo.TypeOf(s.Chan)) {
		return s.Value
	}
	return nil
}
