// Package hashjoin implements the radix hash join of Manegold, Boncz and
// Kersten [22] that the paper ports from MonetDB (§IV-C.1): cluster so
// finely that a probe touches one small, contiguous, cache-resident piece
// of S, and ship R already clustered so that every hop reuses that work
// (§IV-D).
//
// There is one layout. The setup phase orders the stationary fragment's
// key and payload columns by the top B bits of relation.HashKey — the
// tuple's bucket id, with B chosen for about four tuples a bucket — and
// records where each bucket starts in a directory of 2^B+1 offsets. A probe
// is then one hash, two adjacent directory loads and a scan of the few
// contiguous keys between them: no chain to follow, no per-partition
// header.
//
// The rotating fragment is clustered once, before it enters the ring, on
// the top RadixBits bits of the same hash. A cluster's id is therefore a
// prefix of the bucket ids of everything it can match, so the probes of one
// cluster all land in one contiguous window of S's columns and directory,
// 2^-RadixBits of the whole, which RadixBits sizes to stay cache-resident
// for the cluster's whole run. Nothing in the probe depends on that order —
// an unclustered or differently clustered fragment joins correctly, only
// slower.
//
// Both setups are the counting-sort shape sortmerge's radix sort has:
// per-worker histogram, one prefix sum over (bucket, worker), and a scatter
// in which every worker owns disjoint destination ranges, moving (key, row
// number) pairs and gathering the payload column once at the end. They are
// stable, so their output is the same for every worker count.
//
// The join phase splits the rotating fragment across Options.Parallelism
// goroutines, as the paper runs it on the four cores of its Xeons. For a
// collector that is a join.MatchCounter each worker counts its matches in a
// register and reports them once per fragment; any other collector gets one
// Emit per match.
package hashjoin

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// Join implements join.Algorithm with a radix hash join.
// The zero value is ready to use.
type Join struct{}

var _ join.Algorithm = Join{}

// Name implements join.Algorithm.
func (Join) Name() string { return "hash" }

// Supports implements join.Algorithm: hash joins inherently support only
// equality predicates (§IV-C).
func (Join) Supports(p join.Predicate) bool {
	_, ok := p.(join.Equi)
	return ok
}

// SetupStationary implements join.Algorithm: order s by bucket id and build
// the bucket directory. A relation of 2³² rows or more is an error.
func (j Join) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	if !j.Supports(p) {
		return nil, fmt.Errorf("%w: hash join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
	if err := checkRows(s.Len()); err != nil {
		return nil, err
	}
	fl := opts.FlightRecorder()
	bs := fl.Shard(opts.TraceNode, "join/build")
	bpd := bs.Begin(trace.PhaseBuild)
	bpd.Arg = int64(s.Len())
	st := build(s, clampWorkers(opts.Workers(), s.Len()))
	// One probe track per worker: Join runs the probe phase concurrently
	// and shards are single-producer.
	st.probeShards = make([]*trace.Shard, opts.Workers())
	for w := range st.probeShards {
		st.probeShards[w] = fl.Shard(opts.TraceNode, "join/probe/"+strconv.Itoa(w))
	}
	bs.End(bpd)
	return st, nil
}

// SetupRotating implements join.Algorithm: cluster the rotating fragment on
// the top RadixBits bits of the key hash, so that each cluster probes one
// cache-resident window of any stationary fragment. The clustering is purely
// an optimization — the probe is order-independent — which is why a fragment
// clustered with a different fan-out still joins correctly.
func (Join) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	if _, ok := p.(join.Equi); !ok {
		return nil, fmt.Errorf("%w: hash join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
	b := RadixBits(r.Bytes(), opts)
	if b == 0 {
		return r, nil
	}
	if err := checkRows(r.Len()); err != nil {
		return nil, err
	}
	return clustered(r, b, clampWorkers(opts.Workers(), r.Len()))
}

// RadixBits derives the radix fan-out of the rotating side: enough clusters
// that the window of an equally large stationary fragment one cluster probes,
// with its share of the access structure (≈ 2× the window's data volume),
// fits in a quarter of the L2 cache, following the sizing rule of [22].
func RadixBits(dataBytes int, opts join.Options) int {
	target := opts.L2Bytes() / 4
	if target <= 0 {
		target = 1
	}
	need := (2*dataBytes + target - 1) / target
	if need <= 1 {
		return 0
	}
	b := bits.Len(uint(need - 1)) // ceil(log2(need))
	const maxBits = 14
	if b > maxBits {
		b = maxBits
	}
	return b
}

// checkRows rejects relations whose row numbers do not fit the 32-bit row
// index and directory offsets.
func checkRows(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("hashjoin: cannot index %d rows: row numbers are 32 bits wide", n)
	}
	return nil
}

// minPerWorker keeps a setup worker's chunk large enough to pay for its
// goroutine and its histogram.
const minPerWorker = 8192

func clampWorkers(workers, n int) int {
	return max(min(workers, n/minPerWorker), 1)
}

// dirBits is B, the width of a bucket id, for n tuples: ⌈log₂ n⌉ − 2, which
// puts between two and four tuples in the average bucket.
func dirBits(n int) uint {
	if n <= 4 {
		return 0
	}
	return uint(bits.Len(uint(n-1)) - 2) // ⌈log₂ n⌉ = Len(n-1)
}

// topBits is the widest first-pass digit of the build: the high part of the
// bucket id, narrow enough that the scatter's write streams stay in the TLB
// and the blocks it leaves fit the cache for the second pass.
const topBits = 8

// scratch is the working set of one setup besides its output.
type scratch struct {
	// keys and rows[0] receive the build's first pass; rows holds, per
	// output position, the input row the tuple came from.
	keys []uint64
	rows [2][]uint32
	// hist is one histogram of the clustering digit per worker, turned
	// into scatter offsets in place; starts is where each cluster begins.
	hist   []uint32
	starts []uint32
	// cursors is one block of second-pass scatter offsets per worker.
	cursors []uint32
}

// scratchPool recycles scratch across setups, so a setup allocates nothing
// but its output once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cluster writes the keys of in to dstKeys ordered by the top `width` bits
// of their hash and, beside each, the input row it came from to dstRows.
// Keys of one cluster keep their input order. sc.starts[c] is left holding
// the offset of cluster c, and sc.starts[2^width] the key count.
func (sc *scratch) cluster(dstKeys []uint64, dstRows []uint32, in []uint64, width uint, workers int) {
	fan := 1 << width
	shift := 64 - width
	sc.hist = grown(sc.hist, workers*fan)
	sc.starts = grown(sc.starts, fan+1)
	join.Chunks(len(in), workers, func(w, lo, hi int) {
		h := sc.hist[w*fan : (w+1)*fan]
		clear(h)
		count(h, in[lo:hi], shift)
	})
	// Exclusive prefix sum in (cluster, worker) order: worker w's run of a
	// cluster follows worker w-1's, which keeps input order within it.
	var at uint32
	for c := 0; c < fan; c++ {
		sc.starts[c] = at
		for w := 0; w < workers; w++ {
			n := sc.hist[w*fan+c]
			sc.hist[w*fan+c] = at
			at += n
		}
	}
	sc.starts[fan] = at
	join.Chunks(len(in), workers, func(w, lo, hi int) {
		scatter(dstKeys, dstRows, in[lo:hi], uint32(lo), sc.hist[w*fan:(w+1)*fan], shift)
	})
}

// count adds the cluster of every key to h.
//
//cyclolint:hotpath
func count(h []uint32, keys []uint64, shift uint) {
	for _, k := range keys {
		h[relation.HashKey(k)>>shift]++
	}
}

// scatter moves each key, with its row number, to the next free slot of its
// cluster; off holds the caller's next slot per cluster and key i is row
// first+i.
//
//cyclolint:hotpath
func scatter(dstKeys []uint64, dstRows []uint32, keys []uint64, first uint32, off []uint32, shift uint) {
	for i, k := range keys {
		c := relation.HashKey(k) >> shift
		at := off[c]
		off[c] = at + 1
		dstKeys[at] = k
		dstRows[at] = first + uint32(i)
	}
}

// sortBlock is the build's second pass over one first-pass block: a
// counting sort of its (key, row) pairs by the low bits of the bucket id,
// written to the output at base, where the block starts. dir is the block's
// slice of the directory and receives the start of each of its buckets; cur
// is scratch of the same length.
//
//cyclolint:hotpath
func sortBlock(dstKeys []uint64, dstRows, dir []uint32, keys []uint64, rows, cur []uint32, base uint32, shift uint) {
	mask := uint64(len(cur) - 1)
	clear(cur)
	for _, k := range keys {
		cur[relation.HashKey(k)>>shift&mask]++
	}
	at := base
	for b, n := range cur {
		dir[b], cur[b] = at, at
		at += n
	}
	rows = rows[:len(keys)]
	for i, k := range keys {
		b := relation.HashKey(k) >> shift & mask
		at := cur[b]
		cur[b] = at + 1
		dstKeys[at] = k
		dstRows[at] = rows[i]
	}
}

// gathered returns the payload column of src reordered so that payload i is
// src's payload rows[i].
func gathered(src *relation.Relation, rows []uint32, workers int) []byte {
	payW := src.Schema().PayloadWidth
	pay := make([]byte, len(rows)*payW)
	srcPay := src.PayloadColumn()
	join.Chunks(len(rows), workers, func(_, lo, hi int) {
		join.GatherPayload(pay[lo*payW:hi*payW], srcPay, rows[lo:hi], payW)
	})
	return pay
}

// clustered returns a copy of r ordered by the top `width` bits of the key
// hash, using exactly `workers` chunks.
func clustered(r *relation.Relation, width, workers int) (*relation.Relation, error) {
	n := r.Len()
	keys := make([]uint64, n)
	sc := scratchPool.Get().(*scratch)
	sc.rows[0] = grown(sc.rows[0], n)
	sc.cluster(keys, sc.rows[0], r.Keys(), uint(width), workers)
	pay := gathered(r, sc.rows[0], workers)
	scratchPool.Put(sc)
	return relation.Wrap(r.Schema(), keys, pay)
}

// build orders s by bucket id and fills the directory, using exactly
// `workers` chunks: one clustering pass on the top digit of the bucket id
// into scratch, then a counting sort of each of its blocks by the rest of
// the id straight into the output.
func build(s *relation.Relation, workers int) *stationary {
	n := s.Len()
	b := dirBits(n)
	top := min(b, topBits)
	sub := 1 << (b - top) // buckets per first-pass block
	st := &stationary{
		shift: 64 - b,
		dir:   make([]uint32, 1<<b+1),
		keys:  make([]uint64, n),
		payW:  s.Schema().PayloadWidth,
	}

	sc := scratchPool.Get().(*scratch)
	sc.keys = grown(sc.keys, n)
	sc.rows[0], sc.rows[1] = grown(sc.rows[0], n), grown(sc.rows[1], n)
	sc.cursors = grown(sc.cursors, workers*sub)
	sc.cluster(sc.keys, sc.rows[0], s.Keys(), top, workers)
	join.Chunks(1<<top, workers, func(w, lo, hi int) {
		cur := sc.cursors[w*sub : (w+1)*sub]
		for blk := lo; blk < hi; blk++ {
			from, to := sc.starts[blk], sc.starts[blk+1]
			sortBlock(st.keys, sc.rows[1], st.dir[blk*sub:(blk+1)*sub],
				sc.keys[from:to], sc.rows[0][from:to], cur, from, st.shift)
		}
	})
	st.dir[1<<b] = uint32(n)
	st.pay = gathered(s, sc.rows[1], workers)
	scratchPool.Put(sc)
	return st
}

// stationary is the prepared stationary fragment: its tuples ordered by
// bucket id, and the bucket directory. SetupStationary writes the columns
// and the directory; the probe workers Join launches later only read them,
// and the setup-then-join contract is the happens-before edge.
type stationary struct {
	// shift turns a key's hash into its bucket id, the hash's top
	// 64-shift bits.
	shift uint
	// dir[b] is the offset of bucket b's first tuple; dir[b+1] ends it.
	//
	//cyclolint:sharesafe built during SetupStationary, read-only once Join's probe workers start
	dir []uint32
	//cyclolint:sharesafe built during SetupStationary, read-only once Join's probe workers start
	keys []uint64
	//cyclolint:sharesafe built during SetupStationary, read-only once Join's probe workers start
	pay  []byte
	payW int
	// probeShards records per-worker probe spans (index = worker).
	probeShards []*trace.Shard
}

var _ join.Stationary = (*stationary)(nil)

// Bytes implements join.Stationary: the ordered copy plus the directory.
func (st *stationary) Bytes() int {
	return len(st.keys)*8 + len(st.pay) + len(st.dir)*4
}

// Join implements join.Stationary: probe every tuple of r against its
// bucket, splitting r across Options.Parallelism workers.
func (st *stationary) Join(r *relation.Relation, c join.Collector) error {
	n := r.Len()
	if n == 0 {
		return nil
	}
	counter, _ := c.(join.MatchCounter)
	join.Chunks(n, min(len(st.probeShards), n), func(w, lo, hi int) {
		ps := st.probeShards[w]
		pd := ps.Begin(trace.PhaseProbe)
		pd.Arg = int64(hi - lo)
		if counter != nil {
			counter.AddMatches(st.count(r.Keys()[lo:hi]))
		} else {
			st.emit(r, lo, hi, c)
		}
		ps.End(pd)
	})
	return nil
}

// count returns the number of matches of rKeys against the stationary
// fragment.
//
//cyclolint:hotpath
func (st *stationary) count(rKeys []uint64) int64 {
	keys, dir, shift := st.keys, st.dir, st.shift
	var n int64
	for _, k := range rKeys {
		b := relation.HashKey(k) >> shift
		for _, sk := range keys[dir[b]:dir[b+1]] {
			if sk == k {
				n++
			}
		}
	}
	return n
}

// emit hands every match of tuples [lo, hi) of r to c.
//
//cyclolint:hotpath
func (st *stationary) emit(r *relation.Relation, lo, hi int, c join.Collector) {
	keys, dir, shift, pay, payW := st.keys, st.dir, st.shift, st.pay, st.payW
	rKeys, rPay, rPayW := r.Keys(), r.PayloadColumn(), r.Schema().PayloadWidth
	for i := lo; i < hi; i++ {
		k := rKeys[i]
		b := relation.HashKey(k) >> shift
		for at := int(dir[b]); at < int(dir[b+1]); at++ {
			if keys[at] == k {
				c.Emit(k, k, rPay[i*rPayW:(i+1)*rPayW:(i+1)*rPayW], pay[at*payW:(at+1)*payW:(at+1)*payW])
			}
		}
	}
}
