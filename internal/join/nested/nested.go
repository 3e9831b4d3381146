// Package nested implements the block nested-loops join that cyclo-join
// falls back to for arbitrary join predicates ("our system falls back to the
// universal but slower nested loops join", §IV-C).
//
// The stationary fragment is scanned in cache-sized blocks; for each block,
// the rotating fragment is scanned once and every pair is tested against the
// predicate. The join phase parallelizes over contiguous chunks of the
// rotating fragment, like the other algorithms.
package nested

import (
	"sync"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
)

// Join implements join.Algorithm with a block nested-loops join. The zero
// value is ready to use.
type Join struct{}

var _ join.Algorithm = Join{}

// Name implements join.Algorithm.
func (Join) Name() string { return "nested" }

// Supports implements join.Algorithm: nested loops evaluates any predicate.
func (Join) Supports(p join.Predicate) bool { return p != nil }

// SetupStationary implements join.Algorithm. Nested loops has no access
// structure; setup just retains the fragment.
func (Join) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	return &stationary{rel: s, pred: p, opts: opts}, nil
}

// SetupRotating implements join.Algorithm: no useful reorganization.
func (Join) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	return r, nil
}

type stationary struct {
	rel  *relation.Relation
	pred join.Predicate
	opts join.Options
}

var _ join.Stationary = (*stationary)(nil)

// Bytes implements join.Stationary. There is no access structure beyond the
// fragment itself.
func (st *stationary) Bytes() int { return st.rel.Bytes() }

// Release implements join.Stationary: the fragment is the caller's, so
// there is nothing to hand back.
func (st *stationary) Release() {}

// Join implements join.Stationary.
func (st *stationary) Join(r *relation.Relation, c join.Collector) error {
	workers := st.opts.Workers()
	n := r.Len()
	if n == 0 || st.rel.Len() == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		st.joinRange(r, 0, n, c)
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.joinRange(r, lo, hi, c)
		}()
	}
	wg.Wait()
	return nil
}

// CountEach implements join.Stationary: every key against every stationary
// tuple under the predicate.
func (st *stationary) CountEach(rKeys []uint64, counts []uint32) error {
	sKeys := st.rel.Keys()
	for i, rk := range rKeys {
		var n uint32
		for _, sk := range sKeys {
			if st.pred.Matches(rk, sk) {
				n++
			}
		}
		counts[i] = n
	}
	return nil
}

// blockTuples sizes the stationary block so one block of keys stays within
// the L1 data cache (32 KB on the paper's Xeons).
const blockTuples = 4096

func (st *stationary) joinRange(r *relation.Relation, lo, hi int, c join.Collector) {
	sKeys := st.rel.Keys()
	for blockLo := 0; blockLo < len(sKeys); blockLo += blockTuples {
		blockHi := blockLo + blockTuples
		if blockHi > len(sKeys) {
			blockHi = len(sKeys)
		}
		for ri := lo; ri < hi; ri++ {
			rk := r.Key(ri)
			for si := blockLo; si < blockHi; si++ {
				if st.pred.Matches(rk, sKeys[si]) {
					c.Emit(rk, sKeys[si], r.Payload(ri), st.rel.Payload(si))
				}
			}
		}
	}
}
