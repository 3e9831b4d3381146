package ring

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/testutil"
	"cyclojoin/internal/workload"
)

// TestWriteModeOneRevolution: the one-sided transport mode must be
// behaviorally identical to send/recv.
func TestWriteModeOneRevolution(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 6} {
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			testutil.CheckNoLeaks(t)
			r, recs := newRecorderRing(t, nodes, Config{OneSidedWrites: true}, nil)
			frags := buildFrags(t, nodes, 600)
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatal(err)
			}
			for n, rec := range recs {
				got := rec.counts()
				if len(got) != nodes {
					t.Errorf("node %d saw %d distinct fragments, want %d", n, len(got), nodes)
				}
				for idx, times := range got {
					if times != 1 {
						t.Errorf("node %d processed fragment %d %d times", n, idx, times)
					}
				}
			}
		})
	}
}

func TestWriteModeOverTCP(t *testing.T) {
	testutil.CheckNoLeaks(t)
	r, recs := newRecorderRing(t, 3, Config{OneSidedWrites: true}, TCPLinks())
	frags := buildFrags(t, 3, 400)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		if len(rec.counts()) != 3 {
			t.Errorf("node %d saw %d fragments", n, len(rec.counts()))
		}
	}
}

func TestWriteModeMultipleRuns(t *testing.T) {
	r, recs := newRecorderRing(t, 3, Config{OneSidedWrites: true, BufferSlots: 2}, nil)
	frags := buildFrags(t, 3, 300)
	for round := 0; round < 3; round++ {
		if err := r.Run(perNode(frags)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for n, rec := range recs {
		for idx, times := range rec.counts() {
			if times != 3 {
				t.Errorf("node %d fragment %d seen %d times, want 3", n, idx, times)
			}
		}
	}
}

// TestWriteModeBackpressure: with one slow node and minimal credit slack,
// nothing is lost or duplicated.
func TestWriteModeBackpressure(t *testing.T) {
	const nodes = 4
	recs := make([]*recorder, nodes)
	procs := make([]Processor, nodes)
	for i := range recs {
		recs[i] = newRecorder()
		if i == 2 {
			recs[i].delay = 2e6 // 2ms
		}
		procs[i] = recs[i]
	}
	r, err := New(Config{Nodes: nodes, BufferSlots: 1, OneSidedWrites: true}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	rel := workload.Sequential("R", 400, 4)
	frags, err := relation.Partition(rel, nodes*3)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([][]*relation.Fragment, nodes)
	for i, f := range frags {
		assign[i%nodes] = append(assign[i%nodes], f)
	}
	if err := r.Run(assign); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		for idx, times := range rec.counts() {
			if times != 1 {
				t.Errorf("node %d fragment %d seen %d times", n, idx, times)
			}
		}
		if len(rec.counts()) != len(frags) {
			t.Errorf("node %d saw %d fragments, want %d", n, len(rec.counts()), len(frags))
		}
	}
}

// cqOnly is an inbound endpoint reduced to what the receiver touches: a
// completion queue the test fills by hand, and a record of every buffer
// the node hands back — posted receives in send/recv mode, credit messages
// (by exposed key) in write mode.
type cqOnly struct {
	rdma.WriteQueuePair // the verbs the receiver never calls
	cq                  chan rdma.Completion
	posted              []*rdma.Buffer   // PostRecv, in order
	keys                []rdma.RemoteKey // Expose: keys[i] names recvBufs[i]
	credits             []rdma.RemoteKey // credit messages sent, in order
	creditBufs          []*rdma.Buffer   // the buffers they went out in
}

func (q *cqOnly) Completions() <-chan rdma.Completion { return q.cq }

func (q *cqOnly) PostRecv(b *rdma.Buffer) error {
	q.posted = append(q.posted, b)
	return nil
}

func (q *cqOnly) Expose(*rdma.Buffer) (rdma.RemoteKey, error) {
	q.keys = append(q.keys, rdma.RemoteKey(100+len(q.keys)))
	return q.keys[len(q.keys)-1], nil
}

func (q *cqOnly) PostSend(b *rdma.Buffer) error {
	key, err := decodeCredit(b.Bytes())
	q.credits = append(q.credits, key)
	q.creditBufs = append(q.creditBufs, b)
	return err
}

// TestFrameOfCompletion pins the one thing the receive side of the two
// transport modes disagrees on — what an inbound completion means — and
// that the pump, the tail behind a fault and the drain all apply the same
// copy of it. Each row is one completion; each consumer finds it in a
// queue that is already closed, so the receive loop runs to its end on the
// test's own goroutine.
func TestFrameOfCompletion(t *testing.T) {
	// outcome is what a completion must cause: a frame handed to the join
	// entity, a link failure when the pump meets it, a rejected doorbell
	// (counted, its buffer credited again), a credit buffer back home.
	type outcome struct{ delivered, fault, rejected, creditHome bool }
	rows := []struct {
		name            string
		sendRecv, write outcome
	}{
		{"good frame", outcome{delivered: true}, outcome{delivered: true}},
		// Send/recv mode has no doorbells and sends no credit messages:
		// such an entry means nothing there.
		{"doorbell announcing more than the buffer holds", outcome{}, outcome{fault: true, rejected: true}},
		{"credit message sent", outcome{}, outcome{creditHome: true}},
		{"error completion", outcome{fault: true}, outcome{fault: true}},
		// Write mode re-credits from scratch at the next start, so losing
		// the message is harmless; in send/recv mode any error is a fault.
		{"credit message that raced a teardown", outcome{fault: true}, outcome{}},
	}
	fault := rdma.Completion{Op: rdma.OpRecv, Err: io.ErrUnexpectedEOF}
	pump := func(n *node, qp *cqOnly, accept func(rdma.Completion) error) {
		n.recvLoop(qp, make(chan struct{}), make(chan struct{}), accept)
	}
	consumers := []struct {
		name string
		// lead is what the queue holds ahead of the row's entry; own says
		// whether a fault in that entry is reported (the pump reports;
		// behind a fault, and in the drain, it is already known).
		lead []rdma.Completion
		own  bool
		run  func(*node, *cqOnly, func(rdma.Completion) error)
	}{
		{name: "pump", own: true, run: pump},
		{name: "tail", lead: []rdma.Completion{fault}, run: pump},
		{name: "drain", run: func(_ *node, qp *cqOnly, accept func(rdma.Completion) error) { drainRecv(qp, accept, nil) }},
	}
	for _, writes := range []bool{false, true} {
		for ri, row := range rows {
			for _, cons := range consumers {
				t.Run(fmt.Sprintf("writes=%v/%s/%s", writes, row.name, cons.name), func(t *testing.T) {
					errc := make(chan error, 4)
					n := newNode("test", 1, Config{Nodes: 3, BufferSlots: 2, OneSidedWrites: writes}, nil, nil, errc)
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
					// buffer, so that one is not offered upstream at start —
					// and, in write mode, one credit buffer stays at home for
					// a rejected doorbell's credit to go out in.
					n.pinned[recv[1]] = true
					qp := &cqOnly{cq: make(chan rdma.Completion, 2)}
					offer, want := n.postRecvPool, row.sendRecv
					if writes {
						offer, want = n.exposeRecvPool, row.write
					}
					accept, err := offer(qp, make(chan struct{}))
					if err != nil {
						t.Fatal(err)
					}
					offered := len(qp.posted) + len(qp.credits)
					if offered != 1 {
						t.Fatalf("%d buffers offered upstream at start, want the 1 free one", offered)
					}

					good := rdma.Completion{Op: rdma.OpRecv, Buf: recv[0]}
					sent := rdma.Completion{Op: rdma.OpSend, Buf: recv[1]}
					if writes {
						good = rdma.Completion{Op: rdma.OpWrite, Buf: recv[0], Imm: uint32(frame)}
						sent.Buf = qp.creditBufs[0]
					}
					entry := [...]rdma.Completion{ // in the order of rows
						good,
						{Op: rdma.OpWrite, Buf: recv[0], Imm: uint32(recv[0].Cap() + 1)},
						sent,
						fault,
						{Op: rdma.OpSend, Buf: recv[1], Err: rdma.ErrClosed},
					}[ri]
					for _, c := range append(cons.lead, entry) {
						qp.cq <- c
					}
					close(qp.cq)
					rejectsBefore := mDoorbellRejects.Value()

					cons.run(n, qp, accept)

					inf, delivered := n.procQ.TryPop()
					if delivered != want.delivered {
						t.Fatalf("frame delivered = %v, want %v", delivered, want.delivered)
					}
					if delivered && (inf.buf != recv[0] || inf.frag.Rel.Len() != frag.Rel.Len()) {
						t.Errorf("delivered %d tuples in buffer %p, want %d in %p", inf.frag.Rel.Len(), inf.buf, frag.Rel.Len(), recv[0])
					}
					// The receive pool stays whole: a delivered frame pins its
					// buffer, nothing else changes the pins, and a rejected
					// doorbell's buffer is credited again.
					wantPinned, wantOffered, wantRejects := 1, offered, int64(0)
					if delivered {
						wantPinned++
					}
					if want.rejected {
						wantOffered++
						wantRejects++
					}
					if got := pinnedCount(n); got != wantPinned {
						t.Errorf("%d receive buffers pinned, want %d", got, wantPinned)
					}
					if got := len(qp.posted) + len(qp.credits); got != wantOffered {
						t.Errorf("%d buffers offered upstream in all, want %d", got, wantOffered)
					} else if want.rejected && qp.credits[got-1] != qp.keys[0] {
						t.Errorf("re-credited key %d, want the rejected buffer's key %d", qp.credits[got-1], qp.keys[0])
					}
					if got := mDoorbellRejects.Value() - rejectsBefore; got != wantRejects {
						t.Errorf("ring_doorbell_rejects_total moved by %d, want %d", got, wantRejects)
					}
					wantFailures := len(cons.lead)
					if cons.own && want.fault {
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
					if want.creditHome {
						// With the credit buffer that never left there are now
						// two at home, so the next two credits both go out, the
						// second in the returned buffer.
						done := make(chan struct{})
						go func() {
							defer close(done)
							for _, b := range []*rdma.Buffer{recv[1], recv[0]} {
								//cyclolint:viewsafe the repost-failure error wraps no view bytes
								n.releaseRecv(b)
							}
						}()
						select {
						case <-done:
						case <-time.After(2 * time.Second):
							t.Fatal("credit buffer never came home: a credit has nothing to go out in")
						}
						if got := qp.creditBufs[len(qp.creditBufs)-1]; got != qp.creditBufs[0] {
							t.Errorf("second credit went out in %p, want the returned buffer %p", got, qp.creditBufs[0])
						}
					}
				})
			}
		}
	}
}
