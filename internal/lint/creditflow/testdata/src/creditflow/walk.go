package creditflow

import "log"

// Walk semantics: how each statement form moves a credit along a path.

// labelledBreak returns each credit before leaving both loops at once.
func (n *node) labelledBreak(rows [][]int) {
outer:
	for _, row := range rows {
		for _, v := range row {
			buf, ok := n.freeSend.TryPop()
			if !ok {
				return
			}
			n.freeSend.TryPush(buf)
			if v < 0 {
				break outer
			}
		}
	}
}

// serveForever never falls out of its loop, so its end is unreachable.
func (n *node) serveForever(work chan int) {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	for {
		<-work
		_ = buf.Len()
	}
}

// typeSwitchLeak has no default: the no-match path keeps the credit.
func (n *node) typeSwitchLeak(v any) error {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return nil
	}
	switch v.(type) {
	case int:
		n.freeSend.TryPush(buf)
	case string:
		n.freeSend.TryPush(buf)
	}
	return nil // want `send credit buf .* is not returned on this path`
}

// deferredPush returns the credit on every return via the deferred
// closure.
func (n *node) deferredPush(bad bool) error {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return nil
	}
	defer func() { n.freeSend.TryPush(buf) }()
	if bad {
		return errStopping
	}
	return nil
}

// goHandoff passes the credit to a goroutine that returns it.
func (n *node) goHandoff(done chan struct{}) {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	go func() {
		<-done
		n.freeSend.TryPush(buf)
	}()
}

// fatalPaths leave through calls that never return.
func (n *node) fatalPaths(bad, worse bool) {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	if bad {
		panic("invariant broken")
	}
	if worse {
		log.Fatal("unrecoverable")
	}
	n.freeSend.TryPush(buf)
}

// gotoSkipped leaks, but functions with goto are not analyzed.
func (n *node) gotoSkipped(k int) int {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return 0
	}
retry:
	if k > 0 {
		k--
		goto retry
	}
	return buf.Len()
}
