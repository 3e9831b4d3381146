package join

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"cyclojoin/internal/relation"
)

// Collector receives join matches. Implementations must be safe for
// concurrent use: the multi-threaded join phases emit from several
// goroutines at once (§IV-C: "uses all four cores ... to run the join phase
// in parallel").
type Collector interface {
	// Emit records one match between an R tuple (rKey, rPay) and an S
	// tuple (sKey, sPay). The payload slices are only valid during the
	// call; implementations that retain them must copy.
	Emit(rKey, sKey uint64, rPay, sPay []byte)
}

// MatchCounter is implemented by collectors that need only the number of
// matches, not the tuples. A kernel that finds one behind its Collector
// may count a fragment's matches itself and report them with AddMatches
// in place of one Emit per match, and cyclo-join rotates only the key column
// when every collector of a revolution is one: a MatchCounter's Emit must
// not depend on rPay.
type MatchCounter interface {
	Collector
	// AddMatches records n matches at once. Like Emit it must be safe for
	// concurrent use.
	AddMatches(n int64)
}

// Columns are one side of a Block: a fragment's key column and its payload
// column of Width bytes a tuple.
type Columns struct {
	Keys  []uint64
	Pay   []byte
	Width int
}

// Block is a run of matches between a rotating fragment R and a stationary
// fragment S, named by row: match i joins row Pairs[i][0] of R with row
// Pairs[i][1] of S. A kernel hands a collector its matches a block at a
// time, in the order it would Emit them; every slice is only valid during
// the call that hands the block over.
type Block struct {
	R, S  Columns
	Pairs [][2]uint32
}

// Match returns match i of b as Emit takes it. (A pointer receiver: an
// inlined call on a value would copy the block for every match.)
func (b *Block) Match(i int) (rKey, sKey uint64, rPay, sPay []byte) {
	r, s, rw, sw := int(b.Pairs[i][0]), int(b.Pairs[i][1]), b.R.Width, b.S.Width
	return b.R.Keys[r], b.S.Keys[s], b.R.Pay[r*rw : (r+1)*rw : (r+1)*rw], b.S.Pay[s*sw : (s+1)*sw : (s+1)*sw]
}

// BlockCollector is implemented by collectors that take a block of matches
// in one call: one lock and one capacity check per block, not per match.
type BlockCollector interface {
	Collector
	// EmitBlock records every match of b, in order. Like Emit it must be
	// safe for concurrent use.
	EmitBlock(b Block)
}

// EmitBlock hands the matches of b to c: in one call if c is a
// BlockCollector, one Emit per match, in order, otherwise.
func EmitBlock(c Collector, b Block) {
	if bc, ok := c.(BlockCollector); ok {
		bc.EmitBlock(b)
		return
	}
	for i := range b.Pairs {
		c.Emit(b.Match(i))
	}
}

// Counter counts matches. The zero value is ready to use.
type Counter struct {
	n atomic.Int64
}

var _ MatchCounter = (*Counter)(nil)

// Emit implements Collector.
func (c *Counter) Emit(rKey, sKey uint64, rPay, sPay []byte) { c.n.Add(1) }

// AddMatches implements MatchCounter.
func (c *Counter) AddMatches(n int64) { c.n.Add(n) }

// Count returns the number of matches emitted so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Discard drops all matches; useful for benchmarking the pure join cost.
type Discard struct{}

var _ MatchCounter = Discard{}

// Emit implements Collector.
func (Discard) Emit(rKey, sKey uint64, rPay, sPay []byte) {}

// AddMatches implements MatchCounter.
func (Discard) AddMatches(n int64) {}

// Materializer builds the join result as a relation. The output schema is
//
//	key      = rKey
//	payload  = rPay ‖ sKey (8 bytes little-endian) ‖ sPay
//
// so the result of one cyclo-join run can feed a subsequent run, keyed on
// the R side (the ternary-join composition of §IV-A). Use Rekeyed to key the
// output on the S side instead.
type Materializer struct {
	mu     sync.Mutex
	schema relation.Schema
	keys   []uint64
	pay    []byte
	// rekey selects sKey as the output key when true.
	rekey bool
}

var _ BlockCollector = (*Materializer)(nil)

// NewMaterializer builds a collector producing tuples keyed on rKey.
// rPayWidth and sPayWidth are the payload widths of the two inputs.
func NewMaterializer(name string, rPayWidth, sPayWidth int) *Materializer {
	return &Materializer{schema: relation.Schema{
		Name:         name,
		PayloadWidth: rPayWidth + relation.KeyWidth + sPayWidth,
	}}
}

// NewRekeyedMaterializer builds a collector producing tuples keyed on sKey,
// with payload rKey ‖ rPay ‖ sPay.
func NewRekeyedMaterializer(name string, rPayWidth, sPayWidth int) *Materializer {
	m := NewMaterializer(name, rPayWidth, sPayWidth)
	m.rekey = true
	return m
}

// Emit implements Collector: the output tuple is appended to the columns in
// place, so a match costs no allocation beyond their amortised growth.
func (m *Materializer) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.grow(1)
	m.add(rKey, sKey, rPay, sPay)
}

// EmitBlock implements BlockCollector.
//
//cyclolint:hotpath
func (m *Materializer) EmitBlock(b Block) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.grow(len(b.Pairs))
	for i := range b.Pairs {
		m.add(b.Match(i))
	}
}

// grow makes room for n more output tuples. The caller holds m.mu.
func (m *Materializer) grow(n int) {
	if len(m.keys)+n > cap(m.keys) {
		// Double: append's 1.25× steps would allocate five times the
		// final columns on the way up.
		c := max(2*len(m.keys), len(m.keys)+n, 1024)
		m.keys = append(make([]uint64, 0, c), m.keys...)
		m.pay = append(make([]byte, 0, c*m.schema.PayloadWidth), m.pay...)
	}
}

// add appends one output tuple to columns grow made room in. The caller
// holds m.mu.
func (m *Materializer) add(rKey, sKey uint64, rPay, sPay []byte) {
	before := len(m.pay)
	if m.rekey {
		m.keys = append(m.keys, sKey)
		m.pay = binary.LittleEndian.AppendUint64(m.pay, rKey)
		m.pay = append(append(m.pay, rPay...), sPay...)
	} else {
		m.keys = append(m.keys, rKey)
		m.pay = append(m.pay, rPay...)
		m.pay = binary.LittleEndian.AppendUint64(m.pay, sKey)
		m.pay = append(m.pay, sPay...)
	}
	if len(m.pay)-before != m.schema.PayloadWidth {
		// The widths are fixed at construction; a kernel emitting other
		// ones is a programming error, not a runtime condition.
		panic(fmt.Sprintf("join: materializer %q: emitted payload of %d bytes, want %d",
			m.schema.Name, len(m.pay)-before, m.schema.PayloadWidth))
	}
}

// Result returns the materialized output relation. It aliases the
// collector's columns: call it once the join has finished emitting.
func (m *Materializer) Result() *relation.Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out, err := relation.Wrap(m.schema, m.keys, m.pay)
	if err != nil {
		panic(err) // unreachable: Emit keeps the columns in step
	}
	return out
}

// PairSet records matches as (rKey, sKey) multiset counts — the
// order-insensitive representation the tests use to compare algorithms
// against the nested-loops oracle.
type PairSet struct {
	mu    sync.Mutex
	pairs map[[2]uint64]int
}

var _ BlockCollector = (*PairSet)(nil)

// NewPairSet returns an empty pair multiset collector.
func NewPairSet() *PairSet {
	return &PairSet{pairs: make(map[[2]uint64]int)}
}

// Emit implements Collector.
func (p *PairSet) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.add(rKey, sKey)
}

// EmitBlock implements BlockCollector.
//
//cyclolint:hotpath
func (p *PairSet) EmitBlock(b Block) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range b.Pairs {
		p.add(b.R.Keys[m[0]], b.S.Keys[m[1]])
	}
}

// add records one match. The caller holds p.mu.
func (p *PairSet) add(rKey, sKey uint64) { p.pairs[[2]uint64{rKey, sKey}]++ }

// Pairs returns a copy of the pair multiset.
func (p *PairSet) Pairs() map[[2]uint64]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := make(map[[2]uint64]int, len(p.pairs))
	for k, v := range p.pairs {
		cp[k] = v
	}
	return cp
}

// Equal reports whether two pair multisets are identical.
func (p *PairSet) Equal(o *PairSet) bool {
	a, b := p.Pairs(), o.Pairs()
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Tee fans one match stream out to several collectors.
type Tee []Collector

var _ BlockCollector = Tee(nil)

// Emit implements Collector.
func (t Tee) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	for _, c := range t {
		c.Emit(rKey, sKey, rPay, sPay)
	}
}

// EmitBlock implements BlockCollector: each collector takes b as EmitBlock
// hands it over.
func (t Tee) EmitBlock(b Block) {
	for _, c := range t {
		EmitBlock(c, b)
	}
}
