package layout

import "cyclojoin/internal/relation"

// Order is the ordering with exactly `workers` chunks, so that small inputs
// run chunked too (with empty chunks when workers > n), and the directory
// it writes.
func Order(rel *relation.Relation, rule Rule, workers int) ([]uint64, []byte, []uint32) {
	dir := make([]uint32, dirLen(rule.Buckets))
	keys, pay := order(rel, rule, dir, workers)
	return keys, pay, dir
}
