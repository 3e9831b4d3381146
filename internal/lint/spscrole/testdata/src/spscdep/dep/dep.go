// Package dep wraps an SPSC ring; its methods have no callers here, so
// their queue ops ride the facts as pending and are attributed in the
// importing package, where the goroutine structure is visible.
package dep

import "cyclojoin/internal/ringq"

type Q struct {
	ch *ringq.SPSC[int]
}

func New() *Q { return &Q{ch: ringq.NewSPSC[int](8)} }

func (q *Q) Put(v int) { q.ch.TryPush(v) }

func (q *Q) Get() (int, bool) { return q.ch.TryPop() }

// H pushes through an in-package helper: push has a caller here, so its
// push reaches an importer only through the export of the helpers Fill
// runs.
type H struct {
	ch *ringq.SPSC[int]
}

func (h *H) Fill() { h.push(1) }

func (h *H) push(v int) { h.ch.TryPush(v) }
