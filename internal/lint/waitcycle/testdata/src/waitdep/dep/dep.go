package dep

// W is a worker whose blocking protocol is only attributable at the
// importing launch site: Run has no caller in this package, so its ops
// cross the package boundary as pending facts.
type W struct {
	A chan int
	B chan int
}

func (w *W) Run() {
	w.A <- 1
	<-w.B
}

// V is the same worker shape for the correctly-ordered importer.
type V struct {
	A chan int
	B chan int
}

func (v *V) Run() {
	v.A <- 1
	<-v.B
}

// Q keeps its blocking send behind an in-package helper, as a work queue
// keeps its completion-queue send: complete is called by Deliver, so
// only the export of the helpers an importer's call runs carries the
// send across, in call order — before Deliver's own wait.
type Q struct {
	cq  chan int
	ack chan int
}

func (q *Q) Deliver() {
	q.complete(1)
	<-q.ack
}

// Drain acknowledges, then reaps.
func (q *Q) Drain() {
	q.ack <- 1
	q.Reap()
}

// Reap is called by Drain here, so its receive reaches an importer only
// through Drain's export.
func (q *Q) Reap() int { return <-q.cq }

func (q *Q) complete(v int) { q.cq <- v }

// R is Q waiting for the acknowledgement before it completes.
type R struct {
	cq  chan int
	ack chan int
}

func (r *R) Deliver() {
	<-r.ack
	r.complete(1)
}

func (r *R) Drain() {
	r.ack <- 1
	r.Reap()
}

func (r *R) Reap() int { return <-r.cq }

func (r *R) complete(v int) { r.cq <- v }

// S hands its channels out through accessors, as a work queue hands out
// its receive queue and done channel: a wait on s.Out() is a wait on
// s.out. Run takes from in before it sends on out and closes quit.
type S struct {
	in, out, quit chan int
}

func (s *S) Run() {
	<-s.in
	s.out <- 1
	close(s.quit)
}

func (s *S) In() chan int   { return s.in }
func (s *S) Out() chan int  { return s.out }
func (s *S) Quit() chan int { return s.quit }
