package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.Mutex }

// lockAB establishes A before B.
func lockAB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock acquisition order cycle`
	b.mu.Unlock()
}

// lockBA inverts it: with lockAB this closes a cycle, reported once at
// the earliest edge.
func lockBA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}

// consistent keeps one global order; no report.
func consistent(a *A, c *C) {
	a.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	a.mu.Unlock()
}

func consistentAgain(a *A, c *C) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
}

// unlockedFirst releases A before taking B on the second round, so no
// A→B edge arises here.
func unlockedFirst(a *A, b *B) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }

// guarded returns early without D: the unlock in the guard body releases
// D for the rest of that body, so taking E there records no D→E edge,
// while the fallthrough still holds D when it takes F.
func guarded(d *D, e *E, f *F, busy bool) {
	d.mu.Lock()
	if busy {
		d.mu.Unlock()
		e.mu.Lock()
		e.mu.Unlock()
		return
	}
	f.mu.Lock() // want `lock acquisition order cycle: cyclolinttest/lockorder\.F\.mu is acquired here while holding cyclolinttest/lockorder\.D\.mu`
	f.mu.Unlock()
	d.mu.Unlock()
}

// reversed takes D under E and under F: only the F→D order closes a
// cycle with guarded.
func reversed(d *D, e *E, f *F) {
	e.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	e.mu.Unlock()
	f.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	f.mu.Unlock()
}
