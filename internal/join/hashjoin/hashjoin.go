// Package hashjoin implements the radix hash join of Manegold, Boncz and
// Kersten [22] that the paper ports from MonetDB (§IV-C.1): cluster so
// finely that a probe touches one small, contiguous, cache-resident piece
// of S, and ship R already clustered so that every hop reuses that work
// (§IV-D).
//
// There is one layout and one routine that produces it. The setup phase
// orders the stationary fragment's key and payload columns by the top B bits
// of relation.HashKey — the tuple's bucket id, with B chosen for one to two
// tuples a bucket — and records where each bucket starts in a directory of
// 2^B+1 offsets. A probe is then one hash, two adjacent directory loads and
// a comparison of the window keys that start where the bucket does: a fixed
// number of them, so no branch depends on how full the bucket is. A key of
// the window that lies past the bucket's end belongs to another bucket, so
// its hash — hence the key — differs from the probe's and it cannot count;
// only a bucket longer than the window (a few probes in a hundred on uniform
// keys) is followed by a loop.
//
// The rotating fragment is ordered once, before it enters the ring, by the
// same routine and the same hash, to as many bits as its own size would give
// it as a stationary fragment. Its order is therefore a prefix order of the
// bucket order of every stationary fragment, whatever that fragment's size:
// the probes of one fragment walk S's directory and key column front to
// back, and the hardware prefetcher does what a cache no host has to itself
// cannot. A fragment small enough to stay cache-resident anyway
// (Options.L2CacheBytes) is left as it lies. Nothing in the probe depends on
// the order — an unordered or differently ordered fragment joins correctly,
// only slower.
//
// The ordering is two counting-sort passes of the shape sortmerge's radix
// sort has: the top digit of the bucket id with a per-worker histogram, one
// prefix sum over (bucket, worker) and a scatter in which every worker owns
// disjoint destination ranges; then, per block the first pass left, the rest
// of the id straight into the output. Both move (key, uint32) pairs. The
// uint32 is the payload itself when that is at most four bytes wide, and the
// tuple's row number otherwise, by which the payloads are gathered block by
// block after the second pass. Both passes are stable, so the output is the
// same for every worker count.
//
// The join phase splits the rotating fragment across Options.Parallelism
// goroutines, as the paper runs it on the four cores of its Xeons. For a
// collector that is a join.MatchCounter each worker counts its matches in a
// register and reports them once per fragment; any other collector gets one
// Emit per match.
package hashjoin

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"

	"cyclojoin/internal/join"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// Their ratio answers "is a hot key hurting the probe": 0.02 to 0.08 on
// uniform keys, and the share of probes that hit a heavy bucket under skew.
var (
	mProbes   = metrics.Default().Counter("hashjoin_probes_total", "rotating tuples probed against a stationary fragment")
	mOverflow = metrics.Default().Counter("hashjoin_window_overflow_total", "probes whose bucket ran past the fixed comparison window")
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

// SetupRotating implements join.Algorithm: order the rotating fragment as a
// stationary fragment of its size would be ordered, so that its probes walk
// any stationary fragment front to back. The order is purely an optimization
// — the probe is order-independent — which is why a fragment left as it lies,
// or ordered for another size, still joins correctly.
func (Join) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	if _, ok := p.(join.Equi); !ok {
		return nil, fmt.Errorf("%w: hash join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
	if staysCached(r.Bytes(), opts) {
		return r, nil
	}
	if err := checkRows(r.Len()); err != nil {
		return nil, err
	}
	keys, pay := order(r, dirBits(r.Len()), nil, clampWorkers(opts.Workers(), r.Len()))
	return relation.Wrap(r.Schema(), keys, pay)
}

// staysCached reports whether a rotating fragment of dataBytes is left as it
// lies: it and the equally large piece of a stationary fragment it probes,
// with that piece's share of the directory (≈ 2× the data volume together),
// fit in a quarter of the L2 cache, the sizing rule of [22], so ordering it
// would only copy it.
func staysCached(dataBytes int, opts join.Options) bool {
	return 2*dataBytes <= max(opts.L2Bytes()/4, 1)
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

// window is W, the number of consecutive keys a probe compares without
// looking at where its bucket ends.
const window = 4

// dirBits is B, the width of a bucket id, for n tuples: ⌈log₂ n⌉ − 1, which
// puts between one and two tuples in the average bucket, so that a bucket
// longer than the window is rare.
func dirBits(n int) uint {
	if n <= 2 {
		return 0
	}
	return uint(bits.Len(uint(n-1)) - 1) // ⌈log₂ n⌉ = Len(n-1)
}

// topBits is the widest first-pass digit of the ordering: the high part of
// the bucket id, narrow enough that the scatter's write streams stay in the
// TLB and the blocks it leaves fit the cache for the second pass.
const topBits = 8

// scratch is the working set of one ordering besides its output.
type scratch struct {
	// keys and vals[0] receive the first pass, vals[1] the second. A val is
	// what travels beside a key: the tuple's payload when that fits, else
	// the input row it came from.
	keys []uint64
	vals [2][]uint32
	// hist is one histogram of the first-pass digit per worker, turned into
	// scatter offsets in place; starts is where each first-pass block begins.
	hist   []uint32
	starts []uint32
	// cursors is one block of second-pass scatter offsets per worker.
	cursors []uint32
	// dir is the directory of an ordering whose caller keeps none.
	dir []uint32
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

// order returns the key and payload columns of rel ordered by the top b bits
// of the key hash, the tuples of one bucket in input order, using exactly
// `workers` chunks: one pass on the top digit of the bucket id into scratch,
// then a counting sort of each of its blocks by the rest of the id straight
// into the output. dir, of 2^b+1 entries, receives the offset of every
// bucket; nil stands for a directory nobody keeps.
func order(rel *relation.Relation, b uint, dir []uint32, workers int) ([]uint64, []byte) {
	n, payW := rel.Len(), rel.Schema().PayloadWidth
	in, inPay := rel.Keys(), rel.PayloadColumn()
	top := min(b, topBits)
	fan, sub := 1<<top, 1<<(b-top) // first-pass blocks, and buckets in each
	shift := 64 - b
	keys := make([]uint64, n)

	sc := scratchPool.Get().(*scratch)
	sc.keys = grown(sc.keys, n)
	sc.vals[0], sc.vals[1] = grown(sc.vals[0], n), grown(sc.vals[1], n)
	sc.hist = grown(sc.hist, workers*fan)
	sc.starts = grown(sc.starts, fan+1)
	sc.cursors = grown(sc.cursors, workers*sub)
	if dir == nil {
		sc.dir = grown(sc.dir, 1<<b+1)
		dir = sc.dir
	}
	// A payload of at most four bytes rides through both passes in the
	// row-number slot: vals[1] is free until the second pass writes it.
	var packed []uint32
	if 0 < payW && payW <= 4 {
		packed = sc.vals[1]
	}

	join.Chunks(n, workers, func(w, lo, hi int) {
		h := sc.hist[w*fan : (w+1)*fan]
		clear(h)
		count(h, in[lo:hi], 64-top)
		if packed != nil {
			pack(packed[lo:hi], inPay[lo*payW:hi*payW], payW)
		}
	})
	// Exclusive prefix sum in (block, worker) order: worker w's run of a
	// block follows worker w-1's, which keeps input order within it.
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
	join.Chunks(n, workers, func(w, lo, hi int) {
		var vals []uint32
		if packed != nil {
			vals = packed[lo:hi]
		}
		scatter(sc.keys, sc.vals[0], in[lo:hi], vals, uint32(lo), sc.hist[w*fan:(w+1)*fan], 64-top)
	})
	pay := make([]byte, n*payW)
	join.Chunks(fan, workers, func(w, lo, hi int) {
		cur := sc.cursors[w*sub : (w+1)*sub]
		for blk := lo; blk < hi; blk++ {
			from, to := int(sc.starts[blk]), int(sc.starts[blk+1])
			vals := sc.vals[1][from:to]
			sortBlock(keys[from:to], vals, dir[blk*sub:(blk+1)*sub],
				sc.keys[from:to], sc.vals[0][from:to], cur, uint32(from), shift)
			// While the block's vals are still in the cache.
			if packed != nil {
				unpack(pay[from*payW:to*payW], vals, payW)
			} else {
				join.GatherPayload(pay[from*payW:to*payW], inPay, vals, payW)
			}
		}
	})
	dir[1<<b] = uint32(n)
	scratchPool.Put(sc)
	return keys, pay
}

// count adds the first-pass block of every key to h.
//
//cyclolint:hotpath
func count(h []uint32, keys []uint64, shift uint) {
	for _, k := range keys {
		h[relation.HashKey(k)>>shift]++
	}
}

// pack writes payload i of pay, w ≤ 4 bytes wide, to vals[i], little-endian.
//
//cyclolint:hotpath
func pack(vals []uint32, pay []byte, w int) {
	if w == 4 {
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(pay[i*4:])
		}
		return
	}
	for i := range vals {
		var v uint32
		for j, c := range pay[i*w : (i+1)*w] {
			v |= uint32(c) << (8 * j)
		}
		vals[i] = v
	}
}

// unpack is pack's inverse: payload i of pay becomes the low w bytes of
// vals[i].
//
//cyclolint:hotpath
func unpack(pay []byte, vals []uint32, w int) {
	if w == 4 {
		for i, v := range vals {
			binary.LittleEndian.PutUint32(pay[i*4:], v)
		}
		return
	}
	for i, v := range vals {
		for j := range pay[i*w : (i+1)*w] {
			pay[i*w+j] = byte(v >> (8 * j))
		}
	}
}

// scatter moves each key, with its val, to the next free slot of its
// first-pass block; off holds the caller's next slot per block. Key i's val
// is vals[i], or its row number first+i when vals is nil.
//
//cyclolint:hotpath
func scatter(dstKeys []uint64, dstVals []uint32, keys []uint64, vals []uint32, first uint32, off []uint32, shift uint) {
	if vals == nil {
		for i, k := range keys {
			c := relation.HashKey(k) >> shift
			at := off[c]
			off[c] = at + 1
			dstKeys[at] = k
			dstVals[at] = first + uint32(i)
		}
		return
	}
	vals = vals[:len(keys)]
	for i, k := range keys {
		c := relation.HashKey(k) >> shift
		at := off[c]
		off[c] = at + 1
		dstKeys[at] = k
		dstVals[at] = vals[i]
	}
}

// sortBlock is the second pass over one first-pass block: a counting sort of
// its (key, val) pairs by the low bits of the bucket id into dstKeys and
// dstVals, the block's stretch of the output, which starts at offset base.
// dir is the block's slice of the directory and receives the start of each
// of its buckets; cur is scratch of the same length.
//
//cyclolint:hotpath
func sortBlock(dstKeys []uint64, dstVals, dir []uint32, keys []uint64, vals, cur []uint32, base uint32, shift uint) {
	mask := uint64(len(cur) - 1)
	clear(cur)
	for _, k := range keys {
		cur[relation.HashKey(k)>>shift&mask]++
	}
	var at uint32
	for b, n := range cur {
		dir[b], cur[b] = base+at, at
		at += n
	}
	vals = vals[:len(keys)]
	for i, k := range keys {
		b := relation.HashKey(k) >> shift & mask
		at := cur[b]
		cur[b] = at + 1
		dstKeys[at] = k
		dstVals[at] = vals[i]
	}
}

// build orders s by bucket id and keeps the directory, using exactly
// `workers` chunks.
func build(s *relation.Relation, workers int) *stationary {
	b := dirBits(s.Len())
	st := &stationary{
		shift: 64 - b,
		dir:   make([]uint32, 1<<b+1),
		payW:  s.Schema().PayloadWidth,
	}
	st.keys, st.pay = order(s, b, st.dir, workers)
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
	mProbes.Add(int64(n))
	counter, _ := c.(join.MatchCounter)
	join.Chunks(n, min(len(st.probeShards), n), func(w, lo, hi int) {
		ps := st.probeShards[w]
		pd := ps.Begin(trace.PhaseProbe)
		pd.Arg = int64(hi - lo)
		var overflow int64
		if counter != nil {
			var matches int64
			matches, overflow = st.count(r.Keys()[lo:hi])
			counter.AddMatches(matches)
		} else {
			overflow = st.emit(r, lo, hi, c)
		}
		mOverflow.Add(overflow)
		ps.End(pd)
	})
	return nil
}

// windowHits returns how many of win's `window` keys equal k, each comparison
// a conditional increment: no branch depends on the keys.
//
//cyclolint:hotpath
func windowHits(win []uint64, k uint64) (hits int64) {
	if win[0] == k {
		hits++
	}
	if win[1] == k {
		hits++
	}
	if win[2] == k {
		hits++
	}
	if win[3] == k {
		hits++
	}
	return hits
}

// count returns the number of matches of rKeys against the stationary
// fragment, and the number of probes whose bucket ran past the window.
//
// The window starts where the bucket does, clamped so that it ends inside the
// column; either way it covers the bucket's first `window` keys, and every
// other key in it belongs to a different bucket, so differs from the probe.
//
//cyclolint:hotpath
func (st *stationary) count(rKeys []uint64) (matches, overflow int64) {
	keys, dir, shift := st.keys, st.dir, st.shift
	last := len(keys) - window
	if last < 0 {
		for _, k := range rKeys {
			for _, sk := range keys {
				if sk == k {
					matches++
				}
			}
		}
		return matches, 0
	}
	for _, k := range rKeys {
		b := relation.HashKey(k) >> shift
		at, end := min(int(dir[b]), last), int(dir[b+1])
		matches += windowHits(keys[at:at+window:at+window], k)
		if end > at+window {
			overflow++
			for _, sk := range keys[at+window : end] {
				if sk == k {
					matches++
				}
			}
		}
	}
	return matches, overflow
}

// emit hands every match of tuples [lo, hi) of r to c, a probe's matches in
// ascending position, and returns the number of probes whose bucket ran past
// the window. The window is count's, as a filter: only a probe that matches
// inside it, or whose bucket runs past it, walks its bucket.
//
//cyclolint:hotpath
func (st *stationary) emit(r *relation.Relation, lo, hi int, c join.Collector) (overflow int64) {
	keys, dir, shift, pay, payW := st.keys, st.dir, st.shift, st.pay, st.payW
	rKeys, rPay, rPayW := r.Keys(), r.PayloadColumn(), r.Schema().PayloadWidth
	last := len(keys) - window
	for i := lo; i < hi; i++ {
		k := rKeys[i]
		b := relation.HashKey(k) >> shift
		from, end := int(dir[b]), int(dir[b+1])
		if last >= 0 {
			at := min(from, last)
			if end > at+window {
				overflow++
			} else if windowHits(keys[at:at+window:at+window], k) == 0 {
				continue
			}
		}
		for at := from; at < end; at++ {
			if keys[at] == k {
				c.Emit(k, k, rPay[i*rPayW:(i+1)*rPayW:(i+1)*rPayW], pay[at*payW:(at+1)*payW:(at+1)*payW])
			}
		}
	}
	return overflow
}
