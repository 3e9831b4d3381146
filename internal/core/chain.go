package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cyclojoin/internal/join"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
)

// mChainMatches counts the matches one side of a probe chain handed to the
// next — the rows a plan of one revolution per side would have materialized
// and rotated again.
var mChainMatches = metrics.Default().Counter("core_chain_matches_total", "matches handed from one stationary side to the next inside a host's probe chain")

// batchRows is how many matches a link gathers before it joins them against
// the next side: enough to amortize a Join call (a trace span, a worker
// fork), few enough that a batch of narrow tuples stays in the L1 cache
// between being written and being probed.
const batchRows = 1024

// link is the collector between two sides of a host's probe chain: it gathers
// the matches of the side before it as tuples in the join.Materializer layout
// (key = rKey, payload = rPay ‖ sKey ‖ sPay) and joins every full batch
// against the side after it, into the next link or the revolution's
// collector. When that collector only counts, the batches carry keys alone.
//
// A kernel hands a link its matches a join.Block at a time, from several
// goroutines, so a link locks once per block; it keeps the lock while it
// joins a batch, which hands blocks to the next link — locks are only ever
// taken front to back along a chain.
type link struct {
	next     join.Stationary
	out      join.Collector
	keysOnly bool

	mu   sync.Mutex
	keys []uint64
	pay  []byte
	err  error // the first error of a batch join; flush reports it
}

var _ join.BlockCollector = (*link)(nil)

// chain wires the links that lead from sides[0]'s matches through every
// later side to final, back to front, and returns what sides[0] emits into
// with the links in chain order. A single side emits into final directly.
func chain(sides []join.Stationary, final join.Collector, keysOnly bool) (join.Collector, []*link) {
	if len(sides) == 1 {
		return final, nil
	}
	links := make([]*link, len(sides)-1)
	out := final
	for j := len(links); j >= 1; j-- {
		links[j-1] = &link{next: sides[j], out: out, keysOnly: keysOnly, keys: make([]uint64, 0, batchRows)}
		out = links[j-1]
	}
	return out, links
}

// Emit implements join.Collector.
func (l *link) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(rKey, sKey, rPay, sPay)
	if len(l.keys) == batchRows {
		l.joinBatch()
	}
}

// EmitBlock implements join.BlockCollector: the batch fills straight from
// the block's rows, with their keys alone when the chain only counts, and
// is joined whenever it is full.
//
//cyclolint:hotpath
func (l *link) EmitBlock(b join.Block) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(b.Pairs) > 0 {
		n := min(len(b.Pairs), batchRows-len(l.keys))
		if l.keysOnly {
			// chain gave keys room for a whole batch.
			at := len(l.keys)
			l.keys = l.keys[:at+n]
			for j, m := range b.Pairs[:n] {
				l.keys[at+j] = b.R.Keys[m[0]]
			}
		} else {
			for i := range n {
				l.add(b.Match(i))
			}
		}
		b.Pairs = b.Pairs[n:]
		if len(l.keys) == batchRows {
			l.joinBatch()
		}
	}
}

// add appends one match to the batch, which has room for it. The caller
// holds l.mu.
func (l *link) add(rKey, sKey uint64, rPay, sPay []byte) {
	l.keys = append(l.keys, rKey)
	if !l.keysOnly {
		l.pay = append(l.pay, rPay...)
		l.pay = binary.LittleEndian.AppendUint64(l.pay, sKey)
		l.pay = append(l.pay, sPay...)
	}
}

// flush joins what is left in the batch and reports the first error any
// batch join of this link has met.
func (l *link) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.keys) > 0 {
		l.joinBatch()
	}
	return l.err
}

// joinBatch joins the gathered matches against the next side and empties the
// batch. The caller holds l.mu. After an error the link only drains: the
// hop that flushes it fails, and the revolution with it.
func (l *link) joinBatch() {
	n := len(l.keys)
	mChainMatches.Add(int64(n))
	if l.err == nil {
		batch, err := relation.Wrap(relation.Schema{Name: "chain", PayloadWidth: len(l.pay) / n}, l.keys, l.pay)
		if err == nil {
			err = l.next.Join(batch, l.out)
		}
		if err != nil {
			l.err = fmt.Errorf("cyclojoin: probe chain: %w", err)
		}
	}
	l.keys, l.pay = l.keys[:0], l.pay[:0]
}
