package shareguard

import (
	"sync"
	"sync/atomic"
)

type srv struct {
	mu      sync.Mutex
	guarded int
	bump    int
	racy    int
	mixed   uint64
	cfg     int
	solo    int
	//cyclolint:sharesafe windowed gauge: torn reads acceptable in telemetry
	stat int
	done chan struct{}
}

// Start configures the server, launches the worker, and then keeps
// touching fields from the entry goroutine.
func Start(s *srv) {
	s.cfg = 42 // pre-launch: happens-before the worker
	go s.loop()
	s.racy = 1  // want `\(cyclolinttest/shareguard\.srv\)\.racy has a plain write with no common guard across 2 goroutine origins`
	s.mixed = 0 // want `\(cyclolinttest/shareguard\.srv\)\.mixed has a plain write with no common guard across 2 goroutine origins`
	s.solo = 7  //cyclolint:sharesafe solo is rewritten only during drain, serialized by done
	s.stat = 1
	s.mu.Lock()
	s.guarded++
	s.bumpLocked()
	s.mu.Unlock()
}

func (s *srv) loop() {
	for {
		s.mu.Lock()
		s.guarded++
		s.bumpLocked()
		s.mu.Unlock()
		s.racy++
		atomic.AddUint64(&s.mixed, 1)
		s.solo++ //cyclolint:sharesafe solo is rewritten only during drain, serialized by done
		s.stat++
		if s.cfg == 0 {
			return
		}
		select {
		case <-s.done:
			return
		default:
		}
	}
}

// bumpLocked is only ever called with s.mu held: the calledWith
// intersection guards s.bump on both origins.
func (s *srv) bumpLocked() { s.bump++ }

// fill demonstrates ownership: the chunk is freshly allocated, so its
// field writes are goroutine-local until it is handed off.
type chunk struct {
	n   int
	buf []byte
}

var sink chan *chunk

func Fill() {
	go drain()
	for {
		c := &chunk{buf: make([]byte, 64)}
		c.n = len(c.buf)
		sink <- c
	}
}

func drain() {
	for c := range sink {
		_ = c.n
	}
}

// mark is stamped by value: each goroutine writes the fields of its own
// copy — a parameter or a local of struct type — so nothing is shared.
type mark struct {
	arg, aux int
}

var marks chan mark

func Stamp(s *srv) {
	go stampLoop()
	m := s.template()
	m.arg = 1
	marks <- finish(m, 2)
}

func stampLoop() {
	for m := range marks {
		m.aux = 3
		_ = finish(m, 4)
	}
}

func (s *srv) template() mark { return mark{} }

func finish(m mark, n int) mark {
	m.arg = n
	return m
}

// ref is passed by value too, but a copy shares what its pointer, slice
// and map fields reach: accesses through them race.
type ref struct {
	p *int
	s []int
	m map[int]int
	n []int
}

func Share(r ref) {
	go shareLoop(r)
	*r.p = 1   // want `\(cyclolinttest/shareguard\.ref\)\.p has a plain write with no common guard across 2 goroutine origins`
	r.s[0] = 1 // want `\(cyclolinttest/shareguard\.ref\)\.s has a plain write with no common guard across 2 goroutine origins`
	r.m[0] = 1 // want `\(cyclolinttest/shareguard\.ref\)\.m has a plain write with no common guard across 2 goroutine origins`
	r.n[0] = 1 // want `\(cyclolinttest/shareguard\.ref\)\.n has a plain write with no common guard across 2 goroutine origins`
}

func shareLoop(r ref) {
	*r.p = 2
	r.s[0] = 2
	r.m[0] = 2
	_ = r.n[0]
}

// Captured's local copy is one variable the launched literal shares with
// the function, not a copy of its own.
func Captured(p *mark) {
	m := *p
	go func() {
		m.aux++ // want `\(cyclolinttest/shareguard\.mark\)\.aux has a plain write with no common guard across 2 goroutine origins`
	}()
	m.aux++
}

// Lent hands a pointer to its copy to another goroutine.
func Lent(m mark) {
	go bump(&m)
	m.arg++ // want `\(cyclolinttest/shareguard\.mark\)\.arg has a plain write with no common guard across 2 goroutine origins`
}

func bump(m *mark) { m.arg++ }

// table is read under its RWMutex's RLock and written under its Lock.
// Two goroutines that each hold only the read lock do not exclude each
// other, so a write they both make under RLock races.
type table struct {
	rw     sync.RWMutex
	rows   int
	parked []int
}

func Serve(t *table) {
	go t.park(1)
	go t.park(2)
	t.rw.Lock()
	t.rows++
	t.rw.Unlock()
}

func (t *table) park(v int) {
	t.rw.RLock()
	defer t.rw.RUnlock()
	_ = t.rows
	t.parked = append(t.parked, v) // want `\(cyclolinttest/shareguard\.table\)\.parked has a plain write with no common guard across 2 goroutine origins`
}
