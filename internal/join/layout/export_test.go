package layout

import "cyclojoin/internal/relation"

// Order is the ordering with exactly `workers` chunks, so that small inputs
// run chunked too (with empty chunks when workers > n), the placement that
// follows it, and the directory it writes.
func Order(rel *relation.Relation, rule Rule, workers int) ([]uint64, []byte, []uint32) {
	dir := make([]uint32, dirLen(rule.Buckets))
	keys := order(new(scratch), rel.Keys(), rule, dir, workers)
	pay := make([]byte, len(rel.PayloadColumn()))
	place(pay, rel, append([]uint32(nil), dir...), rule)
	return keys, pay, dir
}

// Placed reports whether st has placed its payloads. It reads what Join
// writes: call it once no Join runs.
func (st *Stationary) Placed() bool { return st.in == nil }

// Placements is how many stationary fragments have placed their payloads.
func Placements() int64 { return mPlacements.Value() }
