package relation

import (
	"fmt"
	"sort"
	"sync"
)

// Fragment is one piece of a partitioned relation together with the ring
// metadata cyclo-join needs: which fragment it is (Index), how many
// fragments the relation was split into (Of), and how many ring hops the
// fragment has completed (Hops).
//
// In the paper's notation, the stationary relation S is partitioned into
// fragments S_i (one per host) and the rotating relation R into fragments
// R_j that travel around the Data Roundabout.
type Fragment struct {
	// Rel holds the fragment's tuples.
	Rel *Relation
	// Index is the fragment number within its relation, 0 ≤ Index < Of.
	Index int
	// Of is the total number of fragments of the relation.
	Of int
	// Hops counts completed ring hops. A fragment retires after Of hops,
	// i.e. after one full revolution in a ring of Of hosts.
	Hops int
	// Epoch distinguishes revolutions when a fragment is kept circulating
	// across several joins (setup-reuse mode).
	Epoch int
}

// Validate reports whether the fragment metadata is consistent.
func (f *Fragment) Validate() error {
	switch {
	case f.Rel == nil:
		return fmt.Errorf("relation: fragment %d/%d has nil relation", f.Index, f.Of)
	case f.Of <= 0:
		return fmt.Errorf("relation: fragment %d has non-positive fragment count %d", f.Index, f.Of)
	case f.Index < 0 || f.Index >= f.Of:
		return fmt.Errorf("relation: fragment index %d out of range [0,%d)", f.Index, f.Of)
	case f.Hops < 0:
		return fmt.Errorf("relation: fragment %d/%d has negative hop count %d", f.Index, f.Of, f.Hops)
	}
	return nil
}

// String implements fmt.Stringer.
func (f *Fragment) String() string {
	return fmt.Sprintf("fragment %d/%d of %s (hop %d)", f.Index, f.Of, f.Rel.schema.Name, f.Hops)
}

// Partition splits r into n fragments of near-equal tuple counts in input
// order (range partitioning by position, the "we do not care how the data is
// distributed" layout of §IV-A). The fragments alias r's storage.
func Partition(r *Relation, n int) ([]*Fragment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("relation: partition %q into %d fragments", r.schema.Name, n)
	}
	frags := make([]*Fragment, n)
	total := r.Len()
	for i := 0; i < n; i++ {
		lo := total * i / n
		hi := total * (i + 1) / n
		view, err := r.Slice(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("relation: partition %q: %w", r.schema.Name, err)
		}
		frags[i] = &Fragment{Rel: view, Index: i, Of: n}
	}
	return frags, nil
}

// PartitionByBytes splits r into fragments whose encoded wire size is at
// most chunkBytes each (except when a single tuple already exceeds it),
// in input order. It turns a chunk size into a fragment plan: the count is
// derived from the relation's tuple width so that each frame lands near
// the requested transfer-unit size of the paper's Fig 5 sweep.
func PartitionByBytes(r *Relation, chunkBytes int) ([]*Fragment, error) {
	if chunkBytes <= 0 {
		return nil, fmt.Errorf("relation: partition %q by %d bytes", r.schema.Name, chunkBytes)
	}
	perFrag := (chunkBytes - headerSize - tupleCountSize) / r.schema.TupleWidth()
	if perFrag < 1 {
		perFrag = 1
	}
	n := (r.Len() + perFrag - 1) / perFrag
	if n < 1 {
		n = 1
	}
	return Partition(r, n)
}

// PartitionByHash splits r into n fragments by key hash: fragment i holds,
// in input order, exactly the tuples whose key Owner assigns to i. Relations
// placed this way are co-partitioned — all tuples of one key, of every
// relation, share a fragment index — which is what core.Cluster.SetupSideByKey
// builds on: it places a stationary side with this function, so one
// revolution joins the rotating side against all such sides locally. Plain
// cyclo-join (core.Cluster.Station, JoinRelations) still does not rely on
// it: there the data lies wherever it lies (ad-hoc queries, §II-C).
//
// The fragments alias one fresh, exactly-sized copy of r ordered by owner
// (r itself when n is 1). The copy is a stable counting sort cut into one
// chunk per fragment that run concurrently; its output does not depend on
// the chunk count.
func PartitionByHash(r *Relation, n int) ([]*Fragment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("relation: hash-partition %q into %d fragments", r.schema.Name, n)
	}
	ordered, starts := orderByOwner(r, n, max(min(n, r.Len()/minChunkTuples), 1))
	frags := make([]*Fragment, n)
	for i := range frags {
		view, err := ordered.Slice(starts[i], starts[i+1])
		if err != nil {
			return nil, fmt.Errorf("relation: hash-partition %q: %w", r.schema.Name, err)
		}
		frags[i] = &Fragment{Rel: view, Index: i, Of: n}
	}
	return frags, nil
}

// OrderByOwner returns r's tuples stably ordered by Owner(key, n): owner 0's
// tuples first, each owner's in input order — r itself when n is 1, a fresh
// copy otherwise. A host of a key-placed cluster finds its share of such a
// relation as one contiguous range.
func OrderByOwner(r *Relation, n int) *Relation {
	ordered, _ := orderByOwner(r, n, 1)
	return ordered
}

// Owner is the placement function of PartitionByHash: which of n hosts holds
// key k. It scales the low 32 bits of HashKey to [0, n) with a multiply and
// a shift. Both join kernels index by the top bits of the same hash (the
// hash join's bucket directory and radix clusters), so an owner's share
// still spreads over all of their buckets; owning by the top bits would
// leave each host's directory 1/n populated with n× longer buckets.
func Owner(k uint64, n int) int {
	return int(uint64(uint32(HashKey(k))) * uint64(n) >> 32)
}

// minChunkTuples keeps a chunk of orderByOwner large enough to pay for its
// goroutine and its histogram.
const minChunkTuples = 8192

// orderByOwner is the counting sort behind PartitionByHash and OrderByOwner:
// a histogram of owners per chunk, one prefix sum in (owner, chunk) order —
// chunk c's run of an owner follows chunk c-1's, which keeps input order
// within it — and a scatter in which every chunk owns disjoint destination
// ranges. starts[i] is where owner i's tuples begin in the result, starts[n]
// the tuple count.
func orderByOwner(r *Relation, n, chunks int) (ordered *Relation, starts []int) {
	total := r.Len()
	if n == 1 {
		return r, []int{0, total}
	}
	next := make([]int, chunks*n) // per chunk: tuples per owner, then the next free slot per owner
	inChunks(total, chunks, func(c, lo, hi int) {
		h := next[c*n : (c+1)*n]
		for _, k := range r.keys[lo:hi] {
			h[Owner(k, n)]++
		}
	})
	starts = make([]int, n+1)
	at := 0
	for o := 0; o < n; o++ {
		starts[o] = at
		for c := 0; c < chunks; c++ {
			count := next[c*n+o]
			next[c*n+o] = at
			at += count
		}
	}
	starts[n] = at

	w := r.schema.PayloadWidth
	keys, pay := make([]uint64, total), make([]byte, total*w)
	inChunks(total, chunks, func(c, lo, hi int) {
		h := next[c*n : (c+1)*n]
		for i, k := range r.keys[lo:hi] {
			o := Owner(k, n)
			at := h[o]
			h[o] = at + 1
			keys[at] = k
			if w > 0 {
				copy(pay[at*w:(at+1)*w], r.pay[(lo+i)*w:])
			}
		}
	})
	return &Relation{schema: r.schema, keys: keys, pay: pay}, starts
}

// inChunks calls fn(c, lo, hi) for each of `chunks` contiguous pieces of
// [0, n), concurrently when there is more than one, and waits for them.
func inChunks(n, chunks int, fn func(c, lo, hi int)) {
	if chunks == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, n*c/chunks, n*(c+1)/chunks)
		}(c)
	}
	wg.Wait()
}

// HashKey is the multiplicative (Fibonacci) hash used for all key hashing in
// the system: radix partitioning, hash tables, and hash-based fragment
// placement all derive their buckets from it.
func HashKey(k uint64) uint64 {
	// 2^64 / golden ratio, the standard Fibonacci hashing multiplier.
	const m = 0x9e3779b97f4a7c15
	h := k * m
	// Mix high bits down so that masking low bits (radix partitioning)
	// still sees avalanche from the whole key.
	return h ^ (h >> 29)
}

// Concat materializes the union of fragments into a single fresh relation,
// in fragment-index order. All fragments must share payload width.
func Concat(schema Schema, frags []*Fragment) (*Relation, error) {
	sorted := make([]*Fragment, len(frags))
	copy(sorted, frags)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	total := 0
	for _, f := range sorted {
		if f.Rel.schema.PayloadWidth != schema.PayloadWidth {
			return nil, fmt.Errorf("%w: concat fragment %d width %d into schema width %d",
				ErrSchemaMismatch, f.Index, f.Rel.schema.PayloadWidth, schema.PayloadWidth)
		}
		total += f.Rel.Len()
	}
	out := New(schema, total)
	for _, f := range sorted {
		out.keys = append(out.keys, f.Rel.keys...)
		out.pay = append(out.pay, f.Rel.pay...)
	}
	return out, nil
}
