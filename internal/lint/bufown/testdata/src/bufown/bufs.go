package bufown

import (
	"errors"

	"cyclojoin/internal/rdma"
)

var errStopping = errors.New("stopping")

// leakOnError drops the credit on the early-exit path.
func leakOnError(free chan *rdma.Buffer, bad bool) error {
	buf := <-free
	if bad {
		return errStopping // want `registered buffer buf .* is still held on this return path`
	}
	free <- buf
	return nil
}

// okPost hands the credit to the transport.
func okPost(free chan *rdma.Buffer, qp rdma.QueuePair) error {
	buf := <-free
	return qp.PostSend(buf)
}

// okReturn transfers the credit to the caller.
func okReturn(free chan *rdma.Buffer) *rdma.Buffer {
	buf := <-free
	return buf
}

// okDefer releases on every return via the deferred send.
func okDefer(free chan *rdma.Buffer, bad bool) error {
	buf := <-free
	defer func() { free <- buf }()
	if bad {
		return errStopping
	}
	return nil
}

// useAfterPost touches memory the transport owns.
func useAfterPost(free chan *rdma.Buffer, qp rdma.QueuePair) {
	buf := <-free
	if err := qp.PostSend(buf); err != nil {
		return
	}
	_ = buf.Bytes() // want `registered buffer buf is accessed \(Bytes\) after being posted`
}

// okReaped touches the buffer only after its completion is reaped, when
// the transport has handed custody back.
func okReaped(free chan *rdma.Buffer, qp rdma.QueuePair, cq chan rdma.Completion) []byte {
	buf := <-free
	if err := qp.PostSend(buf); err != nil {
		return nil
	}
	<-cq
	return buf.Bytes()
}

// doubleRelease puts the same credit back twice on one path.
func doubleRelease(free chan *rdma.Buffer, bad bool) {
	buf := <-free
	free <- buf
	if bad {
		free <- buf // want `registered buffer buf is released twice on this path`
	}
}

// doublePost reposts without reaping a completion.
func doublePost(free chan *rdma.Buffer, qp rdma.QueuePair) {
	buf := <-free
	qp.PostRecv(buf)
	qp.PostRecv(buf) // want `registered buffer buf is posted twice without an intervening completion`
}

// selectLeak loses the credit on the stop path of a select.
func selectLeak(free chan *rdma.Buffer, quit chan struct{}, stop bool) {
	select {
	case buf := <-free:
		if stop {
			return // want `registered buffer buf .* is still held on this return path`
		}
		free <- buf
	case <-quit:
	}
}

// loopLeak drops one credit per iteration.
func loopLeak(free chan *rdma.Buffer, work []int) {
	for range work {
		buf := <-free // want `registered buffer buf is still held at the loop's back edge`
		if len(work) > 3 {
			free <- buf
		}
	}
}

// registerLeak loses a freshly registered buffer on the error path.
func registerLeak(dev *rdma.Device, bad bool) (*rdma.Buffer, error) {
	buf, err := dev.Register(4096)
	if err != nil {
		return nil, err
	}
	if bad {
		return nil, errStopping // want `registered buffer buf .* is still held on this return path`
	}
	return buf, nil
}

// parkInStruct hands the credit to the returned container.
type stash struct{ b *rdma.Buffer }

func parkInStruct(free chan *rdma.Buffer) *stash {
	buf := <-free
	return &stash{b: buf}
}

// sanctioned documents a deliberate park with a directive.
func sanctioned(free chan *rdma.Buffer, bad bool) error {
	buf := <-free
	if bad {
		//cyclolint:bufsafe the reaper drains credits parked during shutdown
		return errStopping
	}
	free <- buf
	return nil
}

// varRegister pairs the error of a `var` acquire exactly like `:=`: the
// err != nil path holds nothing.
func varRegister(dev *rdma.Device) (*rdma.Buffer, error) {
	var buf, err = dev.Register(4096)
	if err != nil {
		return nil, err
	}
	return buf, nil
}
