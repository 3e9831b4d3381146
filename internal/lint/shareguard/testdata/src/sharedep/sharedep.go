package sharedep

import "cyclolinttest/sharedep/dep"

// Run launches an unguarded watcher while the entry goroutine keeps
// writing through dep's guarded path: the guarded write crosses the
// package boundary as a fact, the plain read does not share its guard.
func Run(d *dep.D) {
	go watch(d)
	d.Add() // want `\(cyclolinttest/sharedep/dep\.D\)\.Count has a plain write with no common guard across 2 goroutine origins`
	d.Add()
}

// RunGuarded keeps both sides under dep's mutex: clean.
func RunGuarded(d *dep.D) {
	go func() {
		for {
			_ = d.Snapshot()
		}
	}()
	d.Add()
}

func watch(d *dep.D) {
	for {
		_ = d.Count
	}
}

// RunHits writes through dep's helper from two goroutines: the write in
// the unexported helper reaches this package with its exported callers.
func RunHits(d *dep.D) {
	go func() {
		d.HitTwice() // want `\(cyclolinttest/sharedep/dep\.D\)\.Hits has a plain write with no common guard across 2 goroutine origins`
	}()
	d.Hit()
}

// RunMisses writes through the helper dep calls under its mutex: clean.
func RunMisses(d *dep.D) {
	go func() {
		d.MissGuarded()
	}()
	d.MissGuarded()
}
