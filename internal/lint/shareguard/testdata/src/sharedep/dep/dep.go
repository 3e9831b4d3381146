// Package dep owns a counter whose writes are mutex-guarded; whether an
// importer's reads honor the guard is decided by the fact-threading path.
package dep

import "sync"

type D struct {
	mu     sync.Mutex
	Count  int
	Hits   int
	Misses int
}

// Add is never executed inside this package: the access summary rides
// the facts and is attributed at the importing call site.
func (d *D) Add() {
	d.mu.Lock()
	d.Count++
	d.mu.Unlock()
}

// Snapshot reads under the same guard.
func (d *D) Snapshot() int {
	d.mu.Lock()
	n := d.Count
	d.mu.Unlock()
	return n
}

// Hit writes through an unexported helper, and HitTwice calls Hit, so
// Hit has an in-package caller: the helper's write still rides the facts
// with both, to be attributed at the importing call site.
func (d *D) Hit()      { d.hit() }
func (d *D) HitTwice() { d.Hit(); d.Hit() }
func (d *D) hit()      { d.Hits++ }

// MissGuarded calls its helper holding the mutex: the importer sees the
// lock held at the helper's call.
func (d *D) MissGuarded() {
	d.mu.Lock()
	d.miss()
	d.mu.Unlock()
}

func (d *D) miss() { d.Misses++ }
