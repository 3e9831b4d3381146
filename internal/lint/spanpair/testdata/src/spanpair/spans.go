// Test surface for the spanpair analyzer: leak-free pairings (straight
// line, both branches, defer), leaks on early returns and shutdown
// selects, the loop back-edge case, and escapes that transfer closing
// responsibility elsewhere.
package spanpair

import "cyclojoin/internal/trace"

func work() int  { return 1 }
func cond() bool { return false }

func straightLine(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseJoin)
	work()
	sh.End(pd)
}

func deferred(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseJoin)
	defer sh.End(pd)
	if cond() {
		return
	}
	work()
}

func bothBranchesClosed(sh *trace.Shard) bool {
	pd := sh.Begin(trace.PhaseJoin)
	if cond() {
		sh.End(pd)
		return false
	}
	sh.End(pd)
	return true
}

func leakOnError(sh *trace.Shard) bool {
	pd := sh.Begin(trace.PhaseJoin)
	if cond() {
		return false // want `still open on this return path`
	}
	sh.End(pd)
	return true
}

func leakInSelect(sh *trace.Shard, quit chan struct{}, q chan int) {
	pd := sh.Begin(trace.PhaseWait)
	select {
	case <-quit:
		return // want `still open on this return path`
	case <-q:
	}
	sh.End(pd)
}

func selectClosed(sh *trace.Shard, quit chan struct{}, q chan int) {
	pd := sh.Begin(trace.PhaseWait)
	select {
	case <-quit:
		sh.End(pd)
		return
	case <-q:
	}
	sh.End(pd)
}

func loopBackEdge(sh *trace.Shard, n int) {
	var pd trace.Pending
	for i := 0; i < n; i++ {
		pd = sh.Begin(trace.PhaseJoin) // want `back edge`
		work()
	}
	sh.End(pd)
}

func loopClosedEachIteration(sh *trace.Shard, n int) {
	for i := 0; i < n; i++ {
		pd := sh.Begin(trace.PhaseJoin)
		work()
		sh.End(pd)
	}
}

// The pending moves into a correlation structure: the reaper that pulls
// it back out owns the End. Out of scope for an intra-function check.
type pendMap struct {
	pend map[int]trace.Pending
}

func escapesToMap(sh *trace.Shard, m *pendMap, key int) {
	pd := sh.Begin(trace.PhaseSend)
	m.pend[key] = pd
}

func escapesToHelper(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseSend)
	stash(pd)
}

func stash(pd trace.Pending) { _ = pd }

// Setting correlation fields and probing Active are plain uses, not
// escapes: the span is still tracked and this leak is still reported.
func fieldUseStillTracked(sh *trace.Shard, frag int32) bool {
	pd := sh.Begin(trace.PhaseStage)
	pd.Frag = frag
	if !pd.Active() {
		work()
	}
	if cond() {
		return false // want `still open on this return path`
	}
	sh.End(pd)
	return true
}

// The completion goroutine owns the End: Begin on the submit path, End
// in the spawned reaper. Previously a false positive.
func endInSpawnedGoroutine(sh *trace.Shard, done chan struct{}) {
	pd := sh.Begin(trace.PhaseSend)
	go func() {
		<-done
		sh.End(pd)
	}()
}

func goEndDirect(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseJoin)
	go sh.End(pd)
}

// A go'd same-package helper that Ends its parameter takes over the
// obligation.
func endViaGoHelper(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseWait)
	go finish(sh, pd)
}

func finish(sh *trace.Shard, pd trace.Pending) {
	sh.End(pd)
}

// Spawning an unrelated goroutine transfers nothing; the leak is still
// reported.
func goroutineNoEndStillLeaks(sh *trace.Shard, q chan int) bool {
	pd := sh.Begin(trace.PhaseSend)
	go func() {
		q <- 1
	}()
	if cond() {
		return false // want `still open on this return path`
	}
	sh.End(pd)
	return true
}

func panicExempt(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseJoin)
	if cond() {
		panic("invariant broken")
	}
	sh.End(pd)
}

// A `var` Begin is tracked exactly like `:=`.
func varLeak(sh *trace.Shard) bool {
	var pd = sh.Begin(trace.PhaseJoin)
	if cond() {
		return false // want `still open on this return path`
	}
	sh.End(pd)
	return true
}
