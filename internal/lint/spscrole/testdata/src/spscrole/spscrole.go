package spscrole

import "cyclojoin/internal/ringq"

type node struct {
	in   *ringq.SPSC[int]
	dual *ringq.SPSC[int]
	out  *ringq.SPSC[int]
	gq   *ringq.SPSC[string]
	ok   *ringq.SPSC[int]
	mix  *ringq.SPSC[int]
	sp   *ringq.SPSC[int]
}

// Clean: one producer origin, one consumer origin.
func (n *node) startClean() {
	go n.produce()
	go n.consume()
}

func (n *node) produce() { n.in.TryPush(1) }

func (n *node) consume() { _, _ = n.in.TryPop() }

// Two goroutines pushing the same queue directly.
func (n *node) startDual() {
	go n.pushA()
	go n.pushB()
}

func (n *node) pushA() { n.dual.TryPush(1) } // want `SPSC \(cyclolinttest/spscrole\.node\)\.dual push has 2 producer origins`

func (n *node) pushB() { n.dual.TryPush(2) }

// The push happens inside a helper that takes the queue as a parameter:
// the op is attributed at the call sites, under each literal's origin.
func pushVia(q *ringq.SPSC[int], v int) { q.TryPush(v) }

func (n *node) startVia() {
	go func() {
		pushVia(n.out, 1) // want `SPSC \(cyclolinttest/spscrole\.node\)\.out push has 2 producer origins`
	}()
	go func() {
		pushVia(n.out, 2)
	}()
}

// Generic helper: both the implicit and the explicit instantiation must
// resolve to the same generic declaration's summary.
func fill[T any](q *ringq.SPSC[T], v T) { q.TryPush(v) }

func (n *node) startGeneric() {
	go func() {
		fill(n.gq, "a") // want `SPSC \(cyclolinttest/spscrole\.node\)\.gq push has 2 producer origins`
	}()
	go func() {
		fill[string](n.gq, "b")
	}()
}

// Sanctioned hand-off: the annotated site is excused, leaving a single
// unexcused producer origin.
func (n *node) startSanctioned() {
	go n.reapOK()
	go n.flushOK()
}

func (n *node) reapOK() { n.ok.TryPush(1) }

func (n *node) flushOK() {
	//cyclolint:role flush runs only after the reaper goroutine has exited
	n.ok.TryPush(2)
}

// An exported entry point pushing the queue an internal goroutine also
// pushes: the caller's goroutine is a second producer.
func (n *node) Inject(v int) { n.mix.TryPush(v) } // want `SPSC \(cyclolinttest/spscrole\.node\)\.mix push has 2 producer origins`

func (n *node) startMix() { go n.mixLoop() }

func (n *node) mixLoop() { n.mix.TryPush(3) }

// A helper launches the push on its parameter: the push runs on the
// helper's launch, a producer of whatever queue the caller passes, beside
// the producer goroutine started next to it.
func spawn(q *ringq.SPSC[int]) {
	go func() { q.TryPush(1) }()
}

func (n *node) startSpawn() {
	spawn(n.sp) // want `SPSC \(cyclolinttest/spscrole\.node\)\.sp push has 2 producer origins: go spscrole\.go:\d+ \(at spscrole\.go:\d+\), go spscrole\.go:\d+`
	go n.pushSp()
}

func (n *node) pushSp() { n.sp.TryPush(2) }
