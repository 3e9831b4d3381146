// Package sortmerge implements the sort-merge join of §IV-C.2.
//
// Setup phase: sort the fragment by join key. The paper calls the C
// library's qsort and names that call as its own room for improvement; we
// substitute a stable LSD radix sort over (key, row number) pairs that
// gathers the payload column once at the end (radix.go). The two-phase
// shape — sort once per fragment, merge once per hop — is the paper's.
//
// The stationary side is the layout hashjoin gives its own, in key order
// instead of hash order: the sorted key and payload columns and a directory
// of bucket starts. Bucket b holds the keys k with (k − min) >> shift = b,
// the shift chosen for at most n/3 buckets (three to six tuples each on
// uniform keys), and dir[b] is the row where bucket b starts. Station builds
// the directory in one pass over the sorted keys.
//
// The merge is a probe per rotating tuple r, for the band |r − s| ≤ w (w = 0
// is the equi-join): one directory load, for the bucket that holds r − w,
// then a comparison of the fixed window of eight keys that starts there,
// each a conditional increment. Every key before the window is below r − w,
// and once the window's last key exceeds r + w so does every key after it:
// the window then holds all of r's candidates, and no branch depends on how
// many there are. A probe whose candidates run past the window (a hot key, a
// wide band, a full bucket) takes two directory lookups instead, for the
// first s ≥ r − w and the first s > r + w, each finished by a binary search
// inside its bucket, so its cost does not grow with the band or the matches.
// Nothing in the probe depends on the rotating fragment's order.
// SetupRotating still sorts it once, as the paper's setup reuse does, so
// that a fragment's probes walk the directory and the key column front to
// back; an unsorted fragment joins correctly, only slower.
//
// The join phase splits the rotating fragment across Options.Parallelism
// goroutines, as the paper runs it on the four cores of its Xeons. For a
// collector that is a join.MatchCounter each worker counts its matches in a
// register and reports them once per fragment. Any other collector gets one
// Emit per match, in ascending r and, for one r, ascending s: a worker
// locates a block of probes, keeps those with candidates without a branch on
// whether they have any, and only those enter the emit loop.
package sortmerge

import (
	"fmt"
	"math/bits"
	"strconv"

	"cyclojoin/internal/join"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// Their ratio answers "is a hot key or a wide band hurting the merge".
var (
	mProbes   = metrics.Default().Counter("sortmerge_probes_total", "rotating tuples merged against a stationary fragment")
	mOverflow = metrics.Default().Counter("sortmerge_window_overflow_total", "probes whose candidates ran past the fixed comparison window")
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
// configured parallelism, and build the key directory over it.
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
	st := &stationary{
		keys:  sorted.Keys(),
		pay:   sorted.PayloadColumn(),
		payW:  sorted.Schema().PayloadWidth,
		width: w,
	}
	st.buildDir()
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
// fragment then circulates the ring, so every host's probes walk its
// directory in order — this is the paper's "re-organized data (sorted ...)"
// setup-reuse.
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

// window is W, the number of consecutive keys a probe compares without
// looking at where its bucket ends: two halves of four, see between.
const window = 8

// perBucket is the fewest tuples the average directory bucket holds: the
// directory has at most n/perBucket buckets, so between perBucket and twice
// that many tuples share one on uniform keys, and it costs at most 4/perBucket
// bytes a tuple.
const perBucket = 3

// dirShift is the width of the key prefix a bucket shares for n keys that
// span `span`: the smallest shift that leaves at most n/perBucket buckets.
func dirShift(span uint64, n int) uint {
	most := uint64(max(n/perBucket, 1))
	return uint(bits.Len64(span / most))
}

// stationary is the prepared stationary fragment: its tuples sorted by key,
// and the key directory. SetupStationary writes the columns and the
// directory; the merge workers Join launches later only read them, and the
// setup-then-join contract is the happens-before edge.
type stationary struct {
	// keys is the sorted key column. Its capacity holds at least one window:
	// a column shorter than that is a copy padded with MaxUint64.
	//
	//cyclolint:sharesafe built during SetupStationary, read-only once Join's merge workers start
	keys []uint64
	//cyclolint:sharesafe built during SetupStationary, read-only once Join's merge workers start
	pay  []byte
	payW int
	// width is the band's half-width; 0 for the equi-join.
	width uint64
	// base is the smallest key and shift the width of a bucket's prefix: key
	// k ≥ base lies in bucket (k − base) >> shift.
	base  uint64
	shift uint
	// dir[b] is the row of bucket b's first key, or the start of the column's
	// last window if that is earlier, so that a window from dir[b] never runs
	// off the column; dir[b+1] ends the bucket, at the same clamp.
	//
	//cyclolint:sharesafe built during SetupStationary, read-only once Join's merge workers start
	dir []uint32
	// mergeShards records per-worker merge spans (index = worker).
	mergeShards []*trace.Shard
}

var _ join.Stationary = (*stationary)(nil)

// buildDir builds the directory over the sorted keys in one pass: every key,
// last to first, writes its row to its bucket, so that the first row of a
// bucket is the one that stays, and an empty bucket then takes the start of
// the next one. No step branches on the keys.
func (st *stationary) buildDir() {
	n := len(st.keys)
	if n == 0 {
		return
	}
	if n < window {
		// Past the column, MaxUint64 is never below r − w, nor at most
		// r + w in a window that ends above r + w.
		padded := make([]uint64, window)
		for i := copy(padded, st.keys); i < window; i++ {
			padded[i] = ^uint64(0)
		}
		st.keys = padded[:n]
	}
	keys, last := st.keys, uint32(max(n-window, 0))
	st.base = keys[0]
	st.shift = dirShift(keys[n-1]-st.base, n)
	buckets := int((keys[n-1]-st.base)>>st.shift) + 1
	dir := make([]uint32, buckets+1)
	for b := range dir {
		dir[b] = last
	}
	for i := n - 1; i >= 0; i-- {
		dir[(keys[i]-st.base)>>st.shift] = uint32(i)
	}
	// dir[buckets] = last clamps every entry on the way down.
	for b := buckets - 1; b >= 0; b-- {
		dir[b] = min(dir[b], dir[b+1])
	}
	st.dir = dir
}

// Bytes implements join.Stationary: the sorted copy plus the directory.
func (st *stationary) Bytes() int {
	return len(st.keys)*8 + len(st.pay) + len(st.dir)*4
}

// Join implements join.Stationary: probe every tuple of r against the
// directory, splitting r across Options.Parallelism workers.
func (st *stationary) Join(r *relation.Relation, c join.Collector) error {
	n := r.Len()
	if n == 0 || len(st.keys) == 0 {
		return nil
	}
	counter, _ := c.(join.MatchCounter)
	join.Chunks(n, min(len(st.mergeShards), n), func(w, lo, hi int) {
		ms := st.mergeShards[w]
		pd := ms.Begin(trace.PhaseMerge)
		pd.Arg = int64(hi - lo)
		var overflow int64
		if counter != nil {
			var matches int64
			matches, overflow = st.count(r.Keys()[lo:hi])
			counter.AddMatches(matches)
		} else {
			overflow = st.emit(r, lo, hi, c)
		}
		mProbes.Add(int64(hi - lo))
		mOverflow.Add(overflow)
		ms.End(pd)
	})
	return nil
}

// rank returns the number of stationary keys below x: one directory load and
// the window from there, and a binary search inside the bucket if that runs
// past the window.
func (st *stationary) rank(x uint64) int {
	keys, dir := st.keys, st.dir
	b := min(satSub(x, st.base)>>st.shift, uint64(len(dir)-2))
	at := int(dir[b])
	win := keys[at : at+window : at+window]
	if win[window-1] >= x {
		return at + below(win, x)
	}
	// Every key of a later bucket exceeds x. A bucket that starts inside the
	// column's last window has its start clamped to the window's.
	end := int(dir[b+1])
	if end == len(keys)-window {
		end = len(keys)
	}
	at += window
	return at + search(keys[at:end], x)
}

// candidates returns the first row and the number of stationary keys in
// [lowK, highK] by two directory lookups: the path of a probe whose
// candidates run past the window.
func (st *stationary) candidates(lowK, highK uint64) (from, n int) {
	from, to := st.rank(lowK), len(st.keys)
	if highK != ^uint64(0) {
		to = st.rank(highK + 1)
	}
	return from, to - from
}

// count returns the number of matches of rKeys against the stationary
// fragment, and the number of probes whose candidates ran past the window.
//
// The window starts where the bucket of r − w does, or earlier: every key
// before it is below r − w. When its last key exceeds r + w so does every key
// after it, and the window's keys in [r − w, r + w] are all the matches.
// satSub(k, wb) is r − w − base saturated at zero, the offset of r − w in the
// directory, in one step.
//
//cyclolint:hotpath
func (st *stationary) count(rKeys []uint64) (matches, overflow int64) {
	keys, dir, shift, w := st.keys, st.dir, st.shift, st.width
	wb, top := satAdd(w, st.base), uint64(len(dir)-2)
	for _, k := range rKeys {
		lowK, highK := satSub(k, w), satAdd(k, w)
		at := int(dir[min(satSub(k, wb)>>shift, top)])
		win := keys[at : at+window : at+window]
		if win[window-1] > highK {
			matches += int64(between(win[:4:4], lowK, highK-lowK) + between(win[4:window:window], lowK, highK-lowK))
			continue
		}
		overflow++
		_, n := st.candidates(lowK, highK)
		matches += int64(n)
	}
	return matches, overflow
}

// block is how many probes emit locates before it emits their matches.
const block = 128

// hit is a located probe: its row, the start of its window, and the number
// of its candidates, or -1 when they ran past the window.
type hit struct {
	row, at, n int
}

// emit hands every match of tuples [lo, hi) of r to c, a probe's matches in
// ascending s, and returns the number of probes whose candidates ran past the
// window. It locates a block of probes at a time and then emits the matches
// of those it kept, so that only a probe that matches enters the emit loop.
//
//cyclolint:hotpath
func (st *stationary) emit(r *relation.Relation, lo, hi int, c join.Collector) (overflow int64) {
	keys, pay, payW, w := st.keys, st.pay, st.payW, st.width
	rKeys, rPay, rPayW := r.Keys(), r.PayloadColumn(), r.Schema().PayloadWidth
	var hits [block]hit
	for blk := lo; blk < hi; blk += block {
		for _, h := range hits[:st.locate(&hits, rKeys[blk:min(blk+block, hi)], blk)] {
			k := rKeys[h.row]
			lowK, highK := satSub(k, w), satAdd(k, w)
			from, n := h.at, h.n
			if n < 0 {
				overflow++
				from, n = st.candidates(lowK, highK)
			} else {
				from += below(keys[from:from+window:from+window], lowK)
			}
			rp := rPay[h.row*rPayW : (h.row+1)*rPayW : (h.row+1)*rPayW]
			for j := from; j < from+n; j++ {
				c.Emit(k, keys[j], rp, pay[j*payW:(j+1)*payW:(j+1)*payW])
			}
		}
	}
	return overflow
}

// locate writes to hits the probes of rKeys, which start at row first, that
// have candidates, with no branch on whether they have any, and returns how
// many it wrote. It is count's loop, in a function of its own so that what
// the loop needs fits in registers.
//
//cyclolint:hotpath
func (st *stationary) locate(hits *[block]hit, rKeys []uint64, first int) (m int) {
	keys, dir, shift, w := st.keys, st.dir, st.shift, st.width
	wb, top := satAdd(w, st.base), uint64(len(dir)-2)
	for i, k := range rKeys[:min(len(rKeys), block)] {
		lowK, highK := satSub(k, w), satAdd(k, w)
		at := int(dir[min(satSub(k, wb)>>shift, top)])
		win := keys[at : at+window : at+window]
		n := -1
		if win[window-1] > highK {
			n = between(win[:4:4], lowK, highK-lowK) + between(win[4:window:window], lowK, highK-lowK)
		}
		hits[m] = hit{row: first + i, at: at, n: n}
		if n != 0 {
			m++
		}
	}
	return m
}

// below returns how many of win's `window` keys are below x, each comparison
// a conditional increment: no branch depends on the keys.
//
//cyclolint:hotpath
func below(win []uint64, x uint64) (n int) {
	win = win[:window:window]
	if win[0] < x {
		n++
	}
	if win[1] < x {
		n++
	}
	if win[2] < x {
		n++
	}
	if win[3] < x {
		n++
	}
	if win[4] < x {
		n++
	}
	if win[5] < x {
		n++
	}
	if win[6] < x {
		n++
	}
	if win[7] < x {
		n++
	}
	return n
}

// between returns how many of win's four keys lie in [a, a+span], each
// comparison a conditional increment. A window takes two calls: one for all
// its keys would not be inlined.
//
//cyclolint:hotpath
func between(win []uint64, a, span uint64) (n int) {
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

// search returns the number of keys below x in sorted keys.
//
//cyclolint:hotpath
func search(keys []uint64, x uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func satSub(a, b uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	return d &^ -borrow
}

func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	return s | -carry
}
