package waitdep

import "cyclolinttest/waitdep/dep"

// Launch starts the dependency worker and a mirror that runs the same
// protocol in the same order: the worker's pending send/recv fold in at
// the go statement and deadlock against the mirror.
func Launch(w *dep.W) {
	go w.Run() // want `static wait cycle: go waitdep\.go:\d+ blocked at send of \(cyclolinttest/waitdep/dep\.W\)\.A`
	go mirror(w)
}

func mirror(w *dep.W) {
	w.B <- 2
	<-w.A
}

// LaunchOrdered pairs the worker with a complementary drain: clean.
func LaunchOrdered(v *dep.V) {
	go v.Run()
	go drain(v)
}

func drain(v *dep.V) {
	<-v.A
	v.B <- 2
}

// LaunchQueue runs a delivery whose helper blocks on the completion send
// before it takes the acknowledgement, against a drain that reaps only
// after acknowledging: each waits on the other.
func LaunchQueue(q *dep.Q) {
	go q.Deliver() // want `static wait cycle: go waitdep\.go:\d+ blocked at send of \(cyclolinttest/waitdep/dep\.Q\)\.cq`
	go q.Drain()
}

// LaunchQueueAcked takes the acknowledgement first: clean.
func LaunchQueueAcked(r *dep.R) {
	go r.Deliver()
	go r.Drain()
}

// LaunchAccessors waits, in a select, on S's out and quit, read through
// its accessors, before it feeds in: every arm is released only past
// Run's wait on in, and Run's wait only past the select.
func LaunchAccessors(s *dep.S) {
	go s.Run() // want `static wait cycle: go waitdep\.go:\d+ blocked at recv of \(cyclolinttest/waitdep/dep\.S\)\.in`
	go waitAccessors(s)
}

func waitAccessors(s *dep.S) {
	select {
	case <-s.Out():
	case <-s.Quit():
	}
	s.In() <- 1
}
