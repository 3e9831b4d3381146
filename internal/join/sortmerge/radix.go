package sortmerge

import (
	"fmt"
	"math"
	"sync"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
)

const (
	digitBits = 8
	buckets   = 1 << digitBits
	digits    = 64 / digitBits

	// minPerWorker keeps a worker's chunk large enough to pay for its
	// goroutine and its 8 KiB histogram block.
	minPerWorker = 4096
)

// digitCounts is one worker's histogram of every digit of its chunk; a
// pass turns the row of its digit into scatter offsets in place.
type digitCounts [digits][buckets]uint32

// scratch is the working set of one sort besides its output: the key
// buffer the passes ping-pong against the output key column, the two
// row-index buffers, and a histogram block per worker.
type scratch struct {
	keys []uint64
	idx  [2][]uint32
	hist []digitCounts
}

// scratchPool recycles scratch across sorts, so a sort allocates nothing
// but its output once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) grow(n, workers int) {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
		sc.idx[0] = make([]uint32, n)
		sc.idx[1] = make([]uint32, n)
	}
	sc.keys, sc.idx[0], sc.idx[1] = sc.keys[:n], sc.idx[0][:n], sc.idx[1][:n]
	if cap(sc.hist) < workers {
		sc.hist = make([]digitCounts, workers)
	}
	sc.hist = sc.hist[:workers]
}

// checkRows rejects relations whose row numbers do not fit the sort's
// 32-bit row index.
func checkRows(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("sortmerge: cannot sort %d rows: the row index is 32 bits wide", n)
	}
	return nil
}

// SortedCopy is ParallelSortedCopy on the calling goroutine alone.
func SortedCopy(r *relation.Relation) (*relation.Relation, error) {
	return ParallelSortedCopy(r, 1)
}

// ParallelSortedCopy returns a copy of r stably sorted by join key: tuples
// with equal keys keep their input order, so the result is the same for
// every worker count. If r is already sorted it is returned unchanged (no
// copy); a relation of 2³² rows or more is an error.
//
// The sort is an LSD radix sort over (key, row number) pairs, one 8-bit
// digit per pass. One scan of the key column builds the histograms of all
// eight digits; digits on which every key agrees cost no pass. The passes
// ping-pong between pooled scratch and the output key column so that the
// last one lands in place, and the payload column is gathered once, at the
// end, through the sorted row numbers. With workers > 1 every step runs
// over contiguous chunks, one per worker: per-worker histograms, one
// prefix sum over (bucket, worker), and a scatter in which each worker
// owns disjoint destination ranges — the same contention-free shape as
// hashjoin's clustering passes.
//
// This is the improvement the paper points at for its setup phase
// (§IV-C.2: "our implementation bears some potential for improvement, such
// as the use of a SIMD-optimized sorting algorithm [6]").
func ParallelSortedCopy(r *relation.Relation, workers int) (*relation.Relation, error) {
	if most := r.Len() / minPerWorker; workers > most {
		workers = most
	}
	return sortedCopy(r, max(workers, 1))
}

// sortedCopy is ParallelSortedCopy with exactly `workers` chunks.
func sortedCopy(r *relation.Relation, workers int) (*relation.Relation, error) {
	if IsSorted(r) {
		return r, nil
	}
	n := r.Len()
	if err := checkRows(n); err != nil {
		return nil, err
	}
	payW := r.Schema().PayloadWidth
	keys := make([]uint64, n)
	pay := make([]byte, n*payW)

	sc := scratchPool.Get().(*scratch)
	sc.grow(n, workers)
	rows := sc.sort(r.Keys(), keys, workers)
	srcPay := r.PayloadColumn()
	join.Chunks(n, workers, func(_, lo, hi int) {
		join.GatherPayload(pay[lo*payW:hi*payW], srcPay, rows[lo:hi], payW)
	})
	scratchPool.Put(sc)
	return relation.Wrap(r.Schema(), keys, pay)
}

// sort writes the keys of in to out in stable sorted order and returns,
// for every output position, the input row it came from. The returned
// slice is one of sc's index buffers. The keys must not all be equal.
func (sc *scratch) sort(in, out []uint64, workers int) []uint32 {
	n := len(in)
	join.Chunks(n, workers, func(w, lo, hi int) {
		sc.hist[w] = digitCounts{}
		countDigits(&sc.hist[w], in[lo:hi])
	})

	// A digit on which every key agrees would be an identity pass.
	var active [digits]int
	passes := 0
	for d := 0; d < digits; d++ {
		same := 0
		for w := range sc.hist {
			same += int(sc.hist[w][d][byte(in[0]>>(d*digitBits))])
		}
		if same != n {
			active[passes] = d
			passes++
		}
	}

	srcKeys, srcRows := in, []uint32(nil)
	for p := 0; p < passes; p++ {
		d := active[p]
		shift := uint(d * digitBits)
		// The last pass must land in out, so passes alternate backwards
		// from there.
		dstKeys, dstRows := sc.keys, sc.idx[p%2]
		if (passes-1-p)%2 == 0 {
			dstKeys = out
		}
		if p > 0 && workers > 1 {
			// The previous pass moved keys between chunks.
			join.Chunks(n, workers, func(w, lo, hi int) {
				sc.hist[w][d] = [buckets]uint32{}
				countDigit(&sc.hist[w][d], srcKeys[lo:hi], shift)
			})
		}
		// Exclusive prefix sum in (bucket, worker) order: worker w's run of
		// a bucket follows worker w-1's, which keeps the sort stable.
		var at uint32
		for b := 0; b < buckets; b++ {
			for w := range sc.hist {
				c := sc.hist[w][d][b]
				sc.hist[w][d][b] = at
				at += c
			}
		}
		join.Chunks(n, workers, func(w, lo, hi int) {
			if srcRows == nil {
				scatterFirst(dstKeys, dstRows, srcKeys[lo:hi], uint32(lo), &sc.hist[w][d], shift)
			} else {
				scatter(dstKeys, dstRows, srcKeys[lo:hi], srcRows[lo:hi], &sc.hist[w][d], shift)
			}
		})
		srcKeys, srcRows = dstKeys, dstRows
	}
	return srcRows
}

// countDigits adds every digit of every key to h.
//
//cyclolint:hotpath
func countDigits(h *digitCounts, keys []uint64) {
	for _, k := range keys {
		h[0][byte(k)]++
		h[1][byte(k>>8)]++
		h[2][byte(k>>16)]++
		h[3][byte(k>>24)]++
		h[4][byte(k>>32)]++
		h[5][byte(k>>40)]++
		h[6][byte(k>>48)]++
		h[7][byte(k>>56)]++
	}
}

// countDigit adds the digit at shift of every key to h.
//
//cyclolint:hotpath
func countDigit(h *[buckets]uint32, keys []uint64, shift uint) {
	for _, k := range keys {
		h[byte(k>>shift)]++
	}
}

// scatter moves each (key, row) pair to the next free slot of its
// digit's bucket; off holds the caller's next slot per bucket.
//
//cyclolint:hotpath
func scatter(dstKeys []uint64, dstRows []uint32, keys []uint64, rows []uint32, off *[buckets]uint32, shift uint) {
	rows = rows[:len(keys)]
	for i, k := range keys {
		b := byte(k >> shift)
		at := off[b]
		off[b] = at + 1
		dstKeys[at] = k
		dstRows[at] = rows[i]
	}
}

// scatterFirst is scatter for the first pass, where the keys are still in
// input order: key i is row first+i.
//
//cyclolint:hotpath
func scatterFirst(dstKeys []uint64, dstRows []uint32, keys []uint64, first uint32, off *[buckets]uint32, shift uint) {
	for i, k := range keys {
		b := byte(k >> shift)
		at := off[b]
		off[b] = at + 1
		dstKeys[at] = k
		dstRows[at] = first + uint32(i)
	}
}
