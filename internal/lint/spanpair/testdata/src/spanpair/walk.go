package spanpair

import (
	"log"

	"cyclojoin/internal/trace"
)

// Walk semantics: how each statement form moves a span along a path.

// labelledBreak Ends each span before leaving both loops at once.
func labelledBreak(sh *trace.Shard, rows [][]int) {
outer:
	for _, row := range rows {
		for _, v := range row {
			pd := sh.Begin(trace.PhaseJoin)
			sh.End(pd)
			if v < 0 {
				break outer
			}
		}
	}
}

// spinForever never falls out of its loop, so its end is unreachable.
func spinForever(sh *trace.Shard, work chan int) {
	pd := sh.Begin(trace.PhaseWait)
	for {
		<-work
		if pd.Active() {
			work <- 1
		}
	}
}

// typeSwitchLeak has no default: the no-match path leaves the span open.
func typeSwitchLeak(sh *trace.Shard, v any) bool {
	pd := sh.Begin(trace.PhaseJoin)
	switch v.(type) {
	case int:
		sh.End(pd)
	case string:
		sh.End(pd)
	}
	return true // want `still open on this return path`
}

// selectDefault Ends on the ready arm and on the default arm.
func selectDefault(sh *trace.Shard, q chan int) {
	pd := sh.Begin(trace.PhaseWait)
	select {
	case <-q:
		sh.End(pd)
	default:
		sh.End(pd)
	}
}

// deferredClosure Ends the span on every return via the deferred closure.
func deferredClosure(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseJoin)
	defer func() { sh.End(pd) }()
	if cond() {
		return
	}
	work()
}

// fatalExempt leaves through a call that never returns.
func fatalExempt(sh *trace.Shard) {
	pd := sh.Begin(trace.PhaseJoin)
	if cond() {
		log.Fatal("unrecoverable")
	}
	sh.End(pd)
}

// gotoSkipped leaks, but functions with goto are not analyzed.
func gotoSkipped(sh *trace.Shard, n int) bool {
	pd := sh.Begin(trace.PhaseJoin)
retry:
	if n > 0 {
		n--
		goto retry
	}
	return pd.Active()
}
