// Package sortmerge implements the sort-merge join of §IV-C.2.
//
// Setup phase: sort the fragment by join key. The paper calls the C
// library's qsort and names that call as its own room for improvement; we
// substitute a stable LSD radix sort over (key, row number) pairs that
// gathers the payload column once at the end (radix.go). Join phase: merge
// the sorted rotating fragment against the sorted stationary fragment with
// a strictly sequential, cache-friendly access pattern. The two-phase
// shape — sort once per fragment, merge once per hop — is the paper's.
//
// Like the paper's implementation, the merge supports band joins
// (|rKey − sKey| ≤ w) as well as plain equi-joins, and the join phase is
// multi-threaded: the rotating fragment is split into as many contiguous
// sub-partitions as there are workers, and each worker merges its piece
// against the stationary run, locating its start position by binary search.
package sortmerge

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// Join implements join.Algorithm with a sort-merge join. The zero value is
// ready to use.
type Join struct{}

var _ join.Algorithm = Join{}

// Name implements join.Algorithm.
func (Join) Name() string { return "sortmerge" }

// Supports implements join.Algorithm: equi-joins and band joins (§IV-C.2).
func (Join) Supports(p join.Predicate) bool {
	switch p.(type) {
	case join.Equi, join.Band:
		return true
	default:
		return false
	}
}

func bandWidth(p join.Predicate) (uint64, error) {
	switch pred := p.(type) {
	case join.Equi:
		return 0, nil
	case join.Band:
		return pred.Width, nil
	default:
		return 0, fmt.Errorf("%w: sort-merge join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
}

// SetupStationary implements join.Algorithm: sort a copy of s, using the
// configured parallelism.
func (Join) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	w, err := bandWidth(p)
	if err != nil {
		return nil, err
	}
	fl := opts.FlightRecorder()
	ss := fl.Shard(opts.TraceNode, "join/sort")
	spd := ss.Begin(trace.PhaseSort)
	spd.Arg = int64(s.Len())
	sorted, err := ParallelSortedCopy(s, opts.Workers())
	if err != nil {
		ss.End(spd)
		return nil, err
	}
	st := &stationary{rel: sorted, width: w, opts: opts}
	// One merge track per worker: Join runs the merge phase concurrently
	// and shards are single-producer.
	st.mergeShards = make([]*trace.Shard, opts.Workers())
	for i := range st.mergeShards {
		st.mergeShards[i] = fl.Shard(opts.TraceNode, "join/merge/"+strconv.Itoa(i))
	}
	ss.End(spd)
	return st, nil
}

// SetupRotating implements join.Algorithm: sort a copy of r. The sorted
// fragment then circulates the ring, so every host's merge sees sorted
// input — this is the paper's "re-organized data (sorted ...)" setup-reuse.
func (Join) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	if _, err := bandWidth(p); err != nil {
		return nil, err
	}
	return ParallelSortedCopy(r, opts.Workers())
}

// IsSorted reports whether r's keys are non-decreasing.
func IsSorted(r *relation.Relation) bool {
	keys := r.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// stationary is the sorted stationary fragment.
type stationary struct {
	rel   *relation.Relation
	width uint64
	opts  join.Options
	// mergeShards records per-worker merge spans (index = worker).
	mergeShards []*trace.Shard
}

var _ join.Stationary = (*stationary)(nil)

// Bytes implements join.Stationary.
func (st *stationary) Bytes() int { return st.rel.Bytes() }

// Join implements join.Stationary: merge r (sorted, or sorted on the fly if
// a caller skipped SetupRotating) against the sorted stationary run.
func (st *stationary) Join(r *relation.Relation, c join.Collector) error {
	r, err := SortedCopy(r)
	if err != nil {
		return err
	}
	workers := st.opts.Workers()
	n := r.Len()
	if n == 0 || st.rel.Len() == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		st.mergeRange(r, 0, n, 0, c)
		return nil
	}
	// Split R_j into contiguous sub-partitions r_{j,k}, one per core
	// (§IV-C.2): "Individual threads then join the stationary S_i with one
	// piece of R_j."
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st.mergeRange(r, lo, hi, w, c)
		}(w)
	}
	wg.Wait()
	return nil
}

// mergeRange merges r[lo:hi] against the full stationary run using the
// sliding-window band merge. For width 0 this degenerates to the classic
// equi sort-merge with duplicate handling.
func (st *stationary) mergeRange(r *relation.Relation, lo, hi, worker int, c join.Collector) {
	ms := st.mergeShard(worker)
	pd := ms.Begin(trace.PhaseMerge)
	pd.Arg = int64(hi - lo)
	sKeys := st.rel.Keys()
	w := st.width
	// Binary-search the first s that can match r[lo].
	first := r.Key(lo)
	low := satSub(first, w)
	si := sort.Search(len(sKeys), func(i int) bool { return sKeys[i] >= low })
	for ri := lo; ri < hi; ri++ {
		rk := r.Key(ri)
		lowK := satSub(rk, w)
		for si < len(sKeys) && sKeys[si] < lowK {
			si++
		}
		highK := satAdd(rk, w)
		for sj := si; sj < len(sKeys) && sKeys[sj] <= highK; sj++ {
			c.Emit(rk, sKeys[sj], r.Payload(ri), st.rel.Payload(sj))
		}
	}
	ms.End(pd)
}

// mergeShard returns the worker's merge track, tolerating a stationary
// built outside SetupStationary (tests construct the struct directly).
func (st *stationary) mergeShard(worker int) *trace.Shard {
	if worker < len(st.mergeShards) && st.mergeShards[worker] != nil {
		return st.mergeShards[worker]
	}
	return trace.NopShard()
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}
