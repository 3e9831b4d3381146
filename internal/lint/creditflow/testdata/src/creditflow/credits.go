package creditflow

import (
	"errors"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/ringq"
)

var errStopping = errors.New("stopping")

type node struct {
	freeSend *ringq.MPMC[*rdma.Buffer]
	qp       rdma.QueuePair
	handoff  chan *rdma.Buffer
}

// leakOnError drops the credit on the early-exit path; the suggested fix
// reinserts the push (see credits.go.golden).
func (n *node) leakOnError(bad bool) error {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return nil
	}
	if bad {
		return errStopping // want `send credit buf .* is not returned on this path`
	}
	n.freeSend.TryPush(buf)
	return nil
}

// okPaired holds nothing on the failed-pop path.
func (n *node) okPaired() {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	n.freeSend.TryPush(buf)
}

// okPost hands the credit to the transport; the completion reaper owns
// the repost.
func (n *node) okPost() error {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return errStopping
	}
	return n.qp.PostSend(buf)
}

// doublePush returns the same credit twice.
func (n *node) doublePush() {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	n.freeSend.TryPush(buf)
	n.freeSend.TryPush(buf) // want `send credit buf is returned twice on this path`
}

// okHandoff transfers the obligation over a channel.
func (n *node) okHandoff() {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	n.handoff <- buf
}

// okBatch stages credits into a scratch slice; the container owns them.
func (n *node) okBatch(batch []*rdma.Buffer) []*rdma.Buffer {
	for i := 0; i < 4; i++ {
		buf, ok := n.freeSend.TryPop()
		if !ok {
			break
		}
		batch = append(batch, buf)
	}
	return batch
}

// repost is a releasing helper: the effect crosses to its callers.
func repost(pool *ringq.MPMC[*rdma.Buffer], buf *rdma.Buffer) {
	pool.TryPush(buf)
}

func (n *node) okViaHelper() {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	repost(n.freeSend, buf)
}

// leakInSelect drops the credit on the recovery path.
func (n *node) leakInSelect(stop chan struct{}) {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return
	}
	select {
	case <-stop:
		return // want `send credit buf .* is not returned on this path`
	default:
		n.freeSend.TryPush(buf)
	}
}

// backEdgeLeak re-pops every iteration without returning the previous
// credit.
func (n *node) backEdgeLeak(rounds int) {
	for i := 0; i < rounds; i++ {
		buf, ok := n.freeSend.TryPop() // want `send credit buf is still held at the loop's back edge`
		if !ok {
			return
		}
		_ = buf.Len()
	}
}

// sanctioned documents a deliberate exception at the statement.
func (n *node) sanctioned(bad bool) error {
	buf, ok := n.freeSend.TryPop()
	if !ok {
		return nil
	}
	if bad {
		//cyclolint:creditsafe the recovery path reconciles credits on restart
		return errStopping
	}
	n.freeSend.TryPush(buf)
	return nil
}

// varLeak pairs the bool of a `var` pop exactly like `:=`, and still sees
// the leak.
func (n *node) varLeak(bad bool) error {
	var buf, ok = n.freeSend.TryPop()
	if !ok {
		return nil
	}
	if bad {
		return errStopping // want `send credit buf .* is not returned on this path`
	}
	n.freeSend.TryPush(buf)
	return nil
}
