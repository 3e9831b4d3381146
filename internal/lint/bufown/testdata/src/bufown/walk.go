package bufown

import (
	"log"

	"cyclojoin/internal/rdma"
)

// Walk semantics: how each statement form moves a credit along a path.

// labelledBreak releases before leaving both loops at once.
func labelledBreak(free chan *rdma.Buffer, rows [][]int) {
outer:
	for _, row := range rows {
		for _, v := range row {
			buf := <-free
			free <- buf
			if v < 0 {
				break outer
			}
		}
	}
}

// serveForever never falls out of its loop, so its end is unreachable.
func serveForever(free chan *rdma.Buffer, work chan int) {
	buf := <-free
	for {
		<-work
		_ = buf.Len()
	}
}

// typeSwitchLeak has no default: the no-match path keeps the credit.
func typeSwitchLeak(free chan *rdma.Buffer, v any) error {
	buf := <-free
	switch v.(type) {
	case int:
		free <- buf
	case string:
		free <- buf
	}
	return nil // want `registered buffer buf .* is still held on this return path`
}

// selectDefault releases on the ready arm and on the default arm.
func selectDefault(free chan *rdma.Buffer, out chan int) {
	buf := <-free
	select {
	case out <- 1:
		free <- buf
	default:
		free <- buf
	}
}

// goHandoff passes the credit to a goroutine that releases it.
func goHandoff(free chan *rdma.Buffer, done chan struct{}) {
	buf := <-free
	go func() {
		<-done
		free <- buf
	}()
}

// fatalPaths leave through calls that never return.
func fatalPaths(free chan *rdma.Buffer, bad, worse bool) {
	buf := <-free
	if bad {
		panic("invariant broken")
	}
	if worse {
		log.Fatal("unrecoverable")
	}
	free <- buf
}

// gotoSkipped leaks, but functions with goto are not analyzed.
func gotoSkipped(free chan *rdma.Buffer, n int) int {
	buf := <-free
retry:
	if n > 0 {
		n--
		goto retry
	}
	return buf.Len()
}

// reapOnOnePath reaps a completion on one arm only; once reaped anywhere
// the buffer is no longer tracked, on any path.
func reapOnOnePath(free chan *rdma.Buffer, qp rdma.QueuePair, cq chan rdma.Completion, post bool) {
	buf := <-free
	if post {
		qp.PostSend(buf)
		<-cq
	}
}
