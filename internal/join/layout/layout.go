// Package layout is the one bucket layout both join kernels use: the radix
// hash join of §IV-C.1 (package hashjoin) and the sort-merge band join of
// §IV-C.2 (package sortmerge). A kernel is a bucket-id rule, a window, a
// predicate-to-range map and its own span tracks and counters; everything
// else is here.
//
// A Rule maps a key to its bucket, id(k) = ((k − Base)·Mul) >> Shift:
// hashjoin takes the top bits of a Fibonacci hash of the key (Base 0), and
// sortmerge a key prefix over the fragment's key range (Mul 1), which is
// monotone in the key. Order moves a relation's key and payload columns into
// bucket order, the tuples of one bucket in input order, in two stable,
// parallel counting-sort passes, and writes a directory of bucket starts as
// a by-product: dir[b] is the row of bucket b's first tuple and dir[b+1]
// ends it.
//
// A probe asks for the stationary keys in a range [lo, hi]: [r, r] for an
// equi-join, [r ⊖ w, r ⊕ w] for a band, saturating at both ends of the key
// domain. Its candidates are the rows [dir[id(lo)], dir[id(hi)+1]), and a
// fixed window of keys from their start holds them unless a heavy key or a
// wide band makes them run past it. Matches reach a join.MatchCounter as one
// count per worker and fragment, and any other collector one Emit at a time,
// a probe's matches in S's bucket order, not in key order.
package layout

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

// Rule is a kernel's bucket-id rule, id(k) = ((k − Base)·Mul) >> Shift for
// the keys it orders; a probe key outside the range a fragment spans takes
// the nearest bucket. (Four fields at most: the compiler keeps a struct that
// small in registers in the ordering's loops.)
type Rule struct {
	Base, Mul uint64
	Shift     uint
	// Buckets is one more than the largest id of a key the rule orders.
	Buckets int
}

// ID is the bucket of a key the ordered relation holds.
func (r Rule) ID(k uint64) uint64 { return (k - r.Base) * r.Mul >> r.Shift }

// Probe is a kernel's join phase: how many keys a probe compares, the band
// it asks for, and what it records.
type Probe struct {
	// Window is W, the number of consecutive keys a probe compares without
	// looking at where its candidates end: 4 or 8, and 8 under a band.
	Window int
	// Width is the band's half-width: a probe for r asks for [r ⊖ w, r ⊕ w];
	// 0 is the equi-join.
	Width uint64
	// Phase labels the probe workers' spans.
	Phase trace.Phase
	// Probes counts probed tuples, Overflow the probes whose candidates ran
	// past the window.
	Probes, Overflow *metrics.Counter
}

// Stationary is a stationed fragment: its columns in bucket order, its
// bucket directory and its probe. Station writes it; the probe workers Join
// launches later only read it, and the setup-then-join contract is the
// happens-before edge.
type Stationary struct {
	Probe
	rule Rule
	// top is the directory's last bucket.
	top uint64
	// dir[b] is the row of bucket b's first tuple; dir[b+1] ends it. Its
	// length is one more than a whole number of second-pass blocks, so its
	// last buckets may be empty.
	//
	// dir, keys and pay are built during SetupStationary and read-only
	// once Join's probe workers start.
	dir  []uint32
	keys []uint64
	pay  []byte
	payW int
	// shards is one flight-recorder track per probe worker (index = worker):
	// Join runs the probe phase concurrently and shards are single-producer.
	shards []*trace.Shard
}

// CheckRows rejects relations whose row numbers do not fit the 32-bit row
// index and directory offsets.
func CheckRows(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("join: cannot index %d rows: row numbers are 32 bits wide", n)
	}
	return nil
}

// StaysCached reports whether a rotating fragment of dataBytes is left as it
// lies: it and the equally large piece of a stationary fragment it probes,
// with that piece's share of the directory (≈ 2× the data volume together),
// fit in a quarter of the L2 cache, the sizing rule of [22], so ordering it
// would only copy it.
func StaysCached(dataBytes int, opts join.Options) bool {
	return 2*dataBytes <= max(opts.L2Bytes()/4, 1)
}

// minPerWorker keeps an ordering worker's chunk large enough to pay for its
// goroutine and its histogram.
const minPerWorker = 8192

// Workers is the number of ordering workers for n tuples.
func Workers(opts join.Options, n int) int {
	return max(min(opts.Workers(), n/minPerWorker), 1)
}

// Rotating returns r in the bucket order rule gives it, for a fragment that
// travels the ring: its probes then walk every stationary fragment's
// directory and key column front to back. A fragment that StaysCached is
// returned as it lies.
func Rotating(r *relation.Relation, rule func(keys []uint64) Rule, opts join.Options) (*relation.Relation, error) {
	if StaysCached(r.Bytes(), opts) {
		return r, nil
	}
	if err := CheckRows(r.Len()); err != nil {
		return nil, err
	}
	keys, pay := order(r, rule(r.Keys()), nil, Workers(opts, r.Len()))
	return relation.Wrap(r.Schema(), keys, pay)
}

// Station orders s by rule into a Stationary for probe. A relation of 2³²
// rows or more is an error.
func Station(s *relation.Relation, rule Rule, probe Probe, opts join.Options) (*Stationary, error) {
	if err := CheckRows(s.Len()); err != nil {
		return nil, err
	}
	dir := make([]uint32, dirLen(rule.Buckets))
	st := &Stationary{Probe: probe, rule: rule, top: uint64(len(dir) - 2), dir: dir, payW: s.Schema().PayloadWidth}
	st.keys, st.pay = order(s, rule, dir, Workers(opts, s.Len()))
	st.shards = make([]*trace.Shard, opts.Workers())
	for w := range st.shards {
		st.shards[w] = opts.FlightRecorder().Shard(opts.TraceNode, "join/"+probe.Phase.String()+"/"+strconv.Itoa(w))
	}
	return st, nil
}

// Bytes implements join.Stationary: the ordered copy plus the directory.
func (st *Stationary) Bytes() int {
	return len(st.keys)*8 + len(st.pay) + len(st.dir)*4
}

// Layout is the fragment as Station left it — its rule, its columns in
// bucket order and its directory — for checking; the caller must not write
// them.
func (st *Stationary) Layout() (rule Rule, keys []uint64, pay []byte, dir []uint32) {
	return st.rule, st.keys, st.pay, st.dir
}

// topBits is the widest first-pass digit of the ordering: the high part of
// the bucket id, narrow enough that the scatter's write streams stay in the
// TLB and the blocks it leaves fit the cache for the second pass.
const topBits = 8

// digits splits the ids of `buckets` buckets into a first-pass digit of
// `fan` values and a second-pass digit of `low` bits.
func digits(buckets int) (fan, low int) {
	b := bits.Len(uint(buckets - 1))
	low = b - min(b, topBits)
	return (buckets-1)>>low + 1, low
}

// dirLen is the length of the directory of `buckets` buckets: one entry per
// bucket of every second-pass block, and one that ends the last.
func dirLen(buckets int) int {
	fan, low := digits(buckets)
	return fan<<low + 1
}

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

// scratchPool recycles scratch across orderings, so an ordering allocates
// nothing but its output once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// order returns the key and payload columns of rel in the bucket order of
// rule, the tuples of one bucket in input order, using exactly `workers`
// chunks: one pass on the top digit of the bucket id into scratch, then a
// counting sort of each of its blocks by the rest of the id straight into
// the output. dir, of dirLen(rule.Buckets) entries, receives the offset of
// every bucket; nil stands for a directory nobody keeps.
func order(rel *relation.Relation, rule Rule, dir []uint32, workers int) ([]uint64, []byte) {
	n, payW := rel.Len(), rel.Schema().PayloadWidth
	in, inPay := rel.Keys(), rel.PayloadColumn()
	fan, low := digits(rule.Buckets)
	sub := 1 << low // buckets in each first-pass block
	first := rule
	first.Shift += uint(low)
	keys := make([]uint64, n)

	sc := scratchPool.Get().(*scratch)
	sc.keys = grown(sc.keys, n)
	sc.vals[0], sc.vals[1] = grown(sc.vals[0], n), grown(sc.vals[1], n)
	sc.hist = grown(sc.hist, workers*fan)
	sc.starts = grown(sc.starts, fan+1)
	sc.cursors = grown(sc.cursors, workers*sub)
	if dir == nil {
		sc.dir = grown(sc.dir, fan*sub+1)
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
		count(h, in[lo:hi], first)
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
		scatter(sc.keys, sc.vals[0], in[lo:hi], vals, uint32(lo), sc.hist[w*fan:(w+1)*fan], first)
	})
	pay := make([]byte, n*payW)
	join.Chunks(fan, workers, func(w, lo, hi int) {
		cur := sc.cursors[w*sub : (w+1)*sub]
		for blk := lo; blk < hi; blk++ {
			from, to := int(sc.starts[blk]), int(sc.starts[blk+1])
			vals := sc.vals[1][from:to]
			sortBlock(keys[from:to], vals, dir[blk*sub:(blk+1)*sub],
				sc.keys[from:to], sc.vals[0][from:to], cur, uint32(from), rule)
			// While the block's vals are still in the cache.
			if packed != nil {
				unpack(pay[from*payW:to*payW], vals, payW)
			} else {
				join.GatherPayload(pay[from*payW:to*payW], inPay, vals, payW)
			}
		}
	})
	dir[fan*sub] = uint32(n)
	scratchPool.Put(sc)
	return keys, pay
}

// count adds the first-pass block of every key to h.
//
//cyclolint:hotpath
func count(h []uint32, keys []uint64, rule Rule) {
	for _, k := range keys {
		h[rule.ID(k)]++
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
func scatter(dstKeys []uint64, dstVals []uint32, keys []uint64, vals []uint32, first uint32, off []uint32, rule Rule) {
	if vals == nil {
		for i, k := range keys {
			c := rule.ID(k)
			at := off[c]
			off[c] = at + 1
			dstKeys[at] = k
			dstVals[at] = first + uint32(i)
		}
		return
	}
	vals = vals[:len(keys)]
	for i, k := range keys {
		c := rule.ID(k)
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
func sortBlock(dstKeys []uint64, dstVals, dir []uint32, keys []uint64, vals, cur []uint32, base uint32, rule Rule) {
	mask := uint64(len(cur) - 1)
	clear(cur)
	for _, k := range keys {
		cur[rule.ID(k)&mask]++
	}
	var at uint32
	for b, n := range cur {
		dir[b], cur[b] = base+at, at
		at += n
	}
	vals = vals[:len(keys)]
	for i, k := range keys {
		b := rule.ID(k) & mask
		at := cur[b]
		cur[b] = at + 1
		dstKeys[at] = k
		dstVals[at] = vals[i]
	}
}

// Join implements join.Stationary: probe every tuple of r, splitting r
// across the probe workers.
func (st *Stationary) Join(r *relation.Relation, c join.Collector) error {
	n := r.Len()
	st.Probes.Add(int64(n))
	counter, _ := c.(join.MatchCounter)
	join.Chunks(n, min(len(st.shards), n), func(w, lo, hi int) {
		sh := st.shards[w]
		pd := sh.Begin(st.Phase)
		pd.Arg = int64(hi - lo)
		var overflow int64
		if counter != nil {
			var matches int64
			matches, overflow = st.count(r.Keys()[lo:hi], st.Width)
			counter.AddMatches(matches)
		} else {
			overflow = st.emit(r, lo, hi, st.Width, c)
		}
		st.Overflow.Add(overflow)
		sh.End(pd)
	})
	return nil
}

// bounds is the range a probe for k asks for under the band ±w: [lo,
// lo+span], saturating at both ends of the key domain.
func bounds(k, w uint64) (lo, span uint64) {
	lo = satSub(k, w)
	return lo, satAdd(k, w) - lo
}

// between returns how many of win's four keys lie in [a, a+span], each
// comparison a conditional increment. A window of eight takes two calls: one
// for all its keys would not be inlined.
//
//cyclolint:hotpath
func between(win []uint64, a, span uint64) (n int64) {
	win = win[:4:4]
	if win[0]-a <= span {
		n++
	}
	if win[1]-a <= span {
		n++
	}
	if win[2]-a <= span {
		n++
	}
	if win[3]-a <= span {
		n++
	}
	return n
}

// walk returns how many of keys lie in [a, a+span].
//
//cyclolint:hotpath
func walk(keys []uint64, a, span uint64) (n int64) {
	for _, k := range keys {
		if k-a <= span {
			n++
		}
	}
	return n
}

// count returns the number of matches of rKeys against the layout for the
// band ±w, and the number of probes whose candidates ran past the window.
//
// The window starts where the candidates do, clamped so that it ends inside
// the column; either way it covers their first W keys, and every other key
// in it lies outside the range.
//
//cyclolint:hotpath
func (st *Stationary) count(rKeys []uint64, w uint64) (matches, overflow int64) {
	if len(st.keys) < st.Window {
		for _, k := range rKeys {
			lo, span := bounds(k, w)
			matches += walk(st.keys, lo, span)
		}
		return matches, 0
	}
	if w == 0 {
		return st.countEqual(rKeys)
	}
	return st.countBand(rKeys, w)
}

// countEqual is count for the equi-join, whose candidates are one bucket.
//
//cyclolint:hotpath
func (st *Stationary) countEqual(rKeys []uint64) (matches, overflow int64) {
	keys, dir, win := st.keys, st.dir, st.Window
	base, mul, shift, top := st.rule.Base, st.rule.Mul, st.rule.Shift&63, st.top
	last := len(keys) - win
	for _, k := range rKeys {
		// A key below base wraps to a large id and takes the last bucket,
		// whose keys all differ from it.
		b := min((k-base)*mul>>shift, top)
		from, end := int(dir[b]), int(dir[b+1])
		at := min(from, last)
		hits := between(keys[at:at+4:at+4], k, 0)
		if win == 8 {
			hits += between(keys[at+4:at+8:at+8], k, 0)
		}
		if end > at+win {
			overflow++
			hits += walk(keys[at+win:end], k, 0)
		}
		matches += hits
	}
	return matches, overflow
}

// countBand is count for a band, whose rule is a key prefix (Mul 1), the
// only rule under which a range of keys is a range of buckets, and whose
// window is eight keys.
//
//cyclolint:hotpath
func (st *Stationary) countBand(rKeys []uint64, w uint64) (matches, overflow int64) {
	keys, dir := st.keys, st.dir
	// lo − Base is k − (w + Base), saturated, in one step.
	base, wb, shift, top := st.rule.Base, satAdd(w, st.rule.Base), st.rule.Shift&63, st.top
	last := len(keys) - 8
	for _, k := range rKeys {
		lo, hi := satSub(k, w), satAdd(k, w)
		b := min(satSub(k, wb)>>shift, top)
		e := min(satSub(hi, base)>>shift, top)
		from, end := int(dir[b]), int(dir[e+1])
		if at := min(from, last); end <= at+8 {
			matches += between(keys[at:at+4:at+4], lo, hi-lo) + between(keys[at+4:at+8:at+8], lo, hi-lo)
			continue
		}
		overflow++
		matches += st.edges(int(b), int(e), lo, hi)
	}
	return matches, overflow
}

// bucket is id(x) for a probe bound x: a bound below the rule's range takes
// its first bucket, an id past the directory's last bucket that one. A
// shift of 64 or more leaves one bucket, which the clamp gives every bound,
// so the shift is masked and costs no test for it.
func (st *Stationary) bucket(x uint64) int {
	return int(min(satSub(x, st.rule.Base)*st.rule.Mul>>(st.rule.Shift&63), st.top))
}

// edges counts the keys of buckets b … e in [lo, hi]: all of them but those
// of bucket b below lo and those of bucket e above hi. A key of an earlier
// bucket is below lo and one of a later bucket above hi, so each edge is
// counted in the eight keys from its bucket's start (or the whole bucket, if
// longer), less the window's keys of other buckets, and a band costs the
// same whatever its width.
func (st *Stationary) edges(b, e int, lo, hi uint64) int64 {
	keys, dir := st.keys, st.dir
	last := len(keys) - 8
	from, end := int(dir[b]), int(dir[e+1])
	n := int64(end - from)
	if at := min(from, last); lo > 0 {
		n += int64(from - at)
		if to := int(dir[b+1]); to > at+8 {
			n -= walk(keys[at:to], 0, lo-1)
		} else {
			n -= between(keys[at:at+4:at+4], 0, lo-1) + between(keys[at+4:at+8:at+8], 0, lo-1)
		}
	}
	at := min(int(dir[e]), last)
	if n -= int64(end - at); end > at+8 {
		return n + walk(keys[at:end], 0, hi)
	}
	return n + between(keys[at:at+4:at+4], 0, hi) + between(keys[at+4:at+8:at+8], 0, hi)
}

// block is how many probes emit locates before it emits their matches.
const block = 128

// located is a probe with candidates: its row and its candidate rows.
type located struct{ row, from, end int }

// emit hands every match of tuples [lo, hi) of r for the band ±w to c, a
// probe's matches in ascending row of the ordered column, and returns the
// number of probes whose candidates ran past the window. The window is
// count's, as a filter: a block of probes is located first, keeping those
// that match inside their window or whose candidates run past it without a
// branch on which, and only those walk their candidates to emit.
//
//cyclolint:hotpath
func (st *Stationary) emit(r *relation.Relation, lo, hi int, w uint64, c join.Collector) (overflow int64) {
	keys, dir, win, pay, payW := st.keys, st.dir, st.Window, st.pay, st.payW
	rKeys, rPay, rPayW := r.Keys(), r.PayloadColumn(), r.Schema().PayloadWidth
	last := len(keys) - win
	var found [block]located
	for first := lo; first < hi; first += block {
		m := 0
		for i := first; i < min(first+block, hi); i++ {
			low, span := bounds(rKeys[i], w)
			b := st.bucket(low)
			e := b
			if span != 0 {
				e = st.bucket(low + span)
			}
			from, end := int(dir[b]), int(dir[e+1])
			found[m] = located{i, from, end}
			if last < 0 {
				m++
				continue
			}
			at := min(from, last)
			hits := between(keys[at:at+4:at+4], low, span)
			if win == 8 {
				hits += between(keys[at+4:at+8:at+8], low, span)
			}
			if end > at+win {
				overflow++
				hits++
			}
			if hits != 0 {
				m++
			}
		}
		for _, p := range found[:m] {
			k := rKeys[p.row]
			low, span := bounds(k, w)
			for at := p.from; at < p.end; at++ {
				if keys[at]-low <= span {
					c.Emit(k, keys[at], rPay[p.row*rPayW:(p.row+1)*rPayW:(p.row+1)*rPayW], pay[at*payW:(at+1)*payW:(at+1)*payW])
				}
			}
		}
	}
	return overflow
}

func satSub(a, b uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	return d &^ -borrow
}

func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	return s | -carry
}
