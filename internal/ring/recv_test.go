package ring

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/relation"
)

// cqOnly is an inbound endpoint reduced to what the receiver touches: a
// completion queue the test fills by hand, and a record of every buffer
// the node posts.
type cqOnly struct {
	rdma.QueuePair // the verbs the receiver never calls
	cq             chan rdma.Completion
	posted         []*rdma.Buffer // PostRecv and PostRecvBatch, in order
}

func (q *cqOnly) Completions() <-chan rdma.Completion { return q.cq }

func (q *cqOnly) PostRecv(b *rdma.Buffer) error {
	q.posted = append(q.posted, b)
	return nil
}

func (q *cqOnly) PostRecvBatch(bufs []*rdma.Buffer) error {
	q.posted = append(q.posted, bufs...)
	return nil
}

func (q *cqOnly) PollCQ(dst []rdma.Completion) int {
	n := 0
	for n < len(dst) {
		select {
		case c, ok := <-q.cq:
			if !ok {
				return n
			}
			dst[n] = c
			n++
		default:
			return n
		}
	}
	return n
}

// TestFrameOfCompletion pins what an inbound completion means — a frame
// for the join entity, nothing, or a link fault — and that the pump, the
// tail behind a fault and the drain all apply the same rule. Each row is
// one completion; each consumer finds it in a queue that is already
// closed, so the receive loop runs to its end on the test's own goroutine.
func TestFrameOfCompletion(t *testing.T) {
	type outcome struct{ delivered, fault bool }
	rows := []struct {
		name string
		want outcome
	}{
		{"good frame", outcome{delivered: true}},
		// Nothing posts sends on the inbound endpoint; such an entry means
		// nothing, but an error is a fault whatever its verb. (The rows
		// keep the names they had when the ring's one-sided write mode
		// sent credit messages from this endpoint.)
		{"credit message sent", outcome{}},
		{"error completion", outcome{fault: true}},
		{"credit message that raced a teardown", outcome{fault: true}},
	}
	fault := rdma.Completion{Op: rdma.OpRecv, Err: io.ErrUnexpectedEOF}
	pump := func(n *node, qp *cqOnly) {
		n.recvLoop(qp, make(chan struct{}), make(chan struct{}))
	}
	consumers := []struct {
		name string
		// lead is what the queue holds ahead of the row's entry; own says
		// whether a fault in that entry is reported (the pump reports;
		// behind a fault, and in the drain, it is already known).
		lead []rdma.Completion
		own  bool
		run  func(*node, *cqOnly)
	}{
		{name: "pump", own: true, run: pump},
		{name: "tail", lead: []rdma.Completion{fault}, run: pump},
		{name: "drain", run: func(n *node, qp *cqOnly) { n.drainRecv(qp, nil) }},
	}
	for ri, row := range rows {
		for _, cons := range consumers {
			t.Run(fmt.Sprintf("%s/%s/%s", sendRecv, row.name, cons.name), func(t *testing.T) {
				errc := make(chan error, 4)
				n := newNode("test", 1, Config{Nodes: 3, BufferSlots: 2}, nil, nil, errc)
				recv, err := n.dev.RegisterPool(2, 1<<16)
				if err != nil {
					t.Fatal(err)
				}
				n.recvBufs = recv
				for _, b := range recv {
					n.views[b] = new(relation.View)
				}
				frag := buildFrags(t, 1, 64)[0]
				frame, err := relation.Encode(frag, recv[0].Data())
				if err != nil {
					t.Fatal(err)
				}
				if err := recv[0].SetLen(frame); err != nil {
					t.Fatal(err)
				}
				// The join entity still holds an earlier frame in the other
				// buffer, so that one is not offered upstream at start.
				n.pinned[recv[1]] = true
				qp := &cqOnly{cq: make(chan rdma.Completion, 2)}
				//cyclolint:viewsafe postRecvPool posts only the unpinned buffer; the view's buffer stays pinned
				if err := n.postRecvPool(qp); err != nil {
					t.Fatal(err)
				}
				offered := len(qp.posted)
				if offered != 1 {
					t.Fatalf("%d buffers offered upstream at start, want the 1 free one", offered)
				}

				entry := [...]rdma.Completion{ // in the order of rows
					{Op: rdma.OpRecv, Buf: recv[0]},
					{Op: rdma.OpSend, Buf: recv[1]},
					fault,
					{Op: rdma.OpSend, Buf: recv[1], Err: rdma.ErrClosed},
				}[ri]
				for _, c := range append(cons.lead, entry) {
					qp.cq <- c
				}
				close(qp.cq)

				cons.run(n, qp)

				inf, delivered := n.procQ.TryPop()
				if delivered != row.want.delivered {
					t.Fatalf("frame delivered = %v, want %v", delivered, row.want.delivered)
				}
				if delivered && (inf.buf != recv[0] || inf.frag.Rel.Len() != frag.Rel.Len()) {
					t.Errorf("delivered %d tuples in buffer %p, want %d in %p", inf.frag.Rel.Len(), inf.buf, frag.Rel.Len(), recv[0])
				}
				// The receive pool stays whole: a delivered frame pins its
				// buffer, and nothing else changes the pins or posts.
				wantPinned := 1
				if delivered {
					wantPinned++
				}
				if got := pinnedCount(n); got != wantPinned {
					t.Errorf("%d receive buffers pinned, want %d", got, wantPinned)
				}
				if got := len(qp.posted); got != offered {
					t.Errorf("%d buffers offered upstream in all, want %d", got, offered)
				}
				wantFailures := len(cons.lead)
				if cons.own && row.want.fault {
					wantFailures++
				}
				if got := len(errc); got != wantFailures {
					t.Fatalf("%d link failures reported, want %d", got, wantFailures)
				}
				for ; wantFailures > 0; wantFailures-- {
					var lf *linkFailure
					if err := <-errc; !errors.As(err, &lf) || lf.le.From != 0 || lf.le.To != 1 || lf.qp != rdma.QueuePair(qp) {
						t.Errorf("reported %v, want a failure of link 0→1 on this endpoint", err)
					}
				}
			})
		}
	}
}
