//go:build !race

package core

// raceDetector reports a -race build, whose sync.Pool drops one Put in four
// at random: a test of memory reuse checks results only under it.
const raceDetector = false
