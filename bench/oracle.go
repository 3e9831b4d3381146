package main

import (
	"slices"

	"cyclojoin/internal/relation"
)

// The oracle computes each workload's match count from the generated inputs
// alone, without calling any join code, so a kernel bug cannot agree with it
// by construction. bench_test.go checks it against join/nested.

// histogram counts the occurrences of every key of r. Generated keys lie in
// [0, domain), so a slice beats a map by an order of magnitude in set-up time.
func histogram(r *relation.Relation, domain int) []int64 {
	h := make([]int64, domain)
	for _, k := range r.Keys() {
		h[k]++
	}
	return h
}

// equiMatches is |R ⋈ S ⋈ …| on key equality: Σₖ Πᵢ cntᵢ(k).
func equiMatches(domain int, rels ...*relation.Relation) int64 {
	prod := histogram(rels[0], domain)
	for _, r := range rels[1:] {
		h := histogram(r, domain)
		for k := range prod {
			prod[k] *= h[k]
		}
	}
	var total int64
	for _, n := range prod {
		total += n
	}
	return total
}

// bandMatches counts the pairs with |r.key − s.key| ≤ width by sliding a
// window over sorted copies of both key columns.
func bandMatches(r, s *relation.Relation, width uint64) int64 {
	rk := slices.Clone(r.Keys())
	sk := slices.Clone(s.Keys())
	slices.Sort(rk)
	slices.Sort(sk)
	var total int64
	lo, hi := 0, 0 // sk[lo:hi] is the window matching the current r key
	for _, k := range rk {
		for lo < len(sk) && sk[lo]+width < k {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < len(sk) && sk[hi] <= k+width {
			hi++
		}
		total += int64(hi - lo)
	}
	return total
}
