package join

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestEquiMatches(t *testing.T) {
	p := Equi{}
	if !p.Matches(5, 5) || p.Matches(5, 6) {
		t.Error("Equi predicate wrong")
	}
}

func TestBandMatches(t *testing.T) {
	tests := []struct {
		width  uint64
		r, s   uint64
		expect bool
	}{
		{0, 5, 5, true},
		{0, 5, 6, false},
		{2, 5, 7, true},
		{2, 7, 5, true},
		{2, 5, 8, false},
		{2, 8, 5, false},
		{10, 0, 10, true},
		{10, 0, 11, false},
		{1, ^uint64(0), ^uint64(0) - 1, true},
	}
	for _, tt := range tests {
		p := Band{Width: tt.width}
		if got := p.Matches(tt.r, tt.s); got != tt.expect {
			t.Errorf("Band(%d).Matches(%d, %d) = %v, want %v", tt.width, tt.r, tt.s, got, tt.expect)
		}
	}
}

// TestBandSymmetric: band joins are symmetric in their arguments.
func TestBandSymmetric(t *testing.T) {
	f := func(w, r, s uint64) bool {
		p := Band{Width: w % 1000}
		return p.Matches(r, s) == p.Matches(s, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBandZeroIsEqui: Band{0} must be exactly Equi.
func TestBandZeroIsEqui(t *testing.T) {
	f := func(r, s uint64) bool {
		return Band{}.Matches(r, s) == Equi{}.Matches(r, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThetaMatches(t *testing.T) {
	lt := Theta{Name: "less", Fn: func(r, s uint64) bool { return r < s }}
	if !lt.Matches(1, 2) || lt.Matches(2, 1) {
		t.Error("Theta predicate wrong")
	}
	if lt.String() != "theta(less)" {
		t.Errorf("String() = %q", lt.String())
	}
	if (Theta{Fn: lt.Fn}).String() != "theta" {
		t.Error("unnamed theta String() wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.Workers() != 1 {
		t.Errorf("Workers() = %d, want 1", o.Workers())
	}
	o = Options{Parallelism: 4}
	if o.Workers() != 4 {
		t.Error("explicit options not honored")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Emit(1, 1, nil, nil)
			}
			c.AddMatches(per)
		}()
	}
	wg.Wait()
	if c.Count() != 2*workers*per {
		t.Errorf("Count = %d, want %d", c.Count(), 2*workers*per)
	}
	c.Reset()
	if c.Count() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestMaterializerLayout(t *testing.T) {
	m := NewMaterializer("out", 2, 3)
	m.Emit(7, 9, []byte{1, 2}, []byte{3, 4, 5})
	out := m.Result()
	if out.Len() != 1 {
		t.Fatalf("Len = %d", out.Len())
	}
	if out.Key(0) != 7 {
		t.Errorf("key = %d, want rKey 7", out.Key(0))
	}
	pay := out.Payload(0)
	if len(pay) != 2+8+3 {
		t.Fatalf("payload width = %d", len(pay))
	}
	if pay[0] != 1 || pay[1] != 2 {
		t.Error("rPay not first")
	}
	if got := binary.LittleEndian.Uint64(pay[2:10]); got != 9 {
		t.Errorf("embedded sKey = %d, want 9", got)
	}
	if pay[10] != 3 || pay[12] != 5 {
		t.Error("sPay not last")
	}
}

func TestRekeyedMaterializer(t *testing.T) {
	m := NewRekeyedMaterializer("out", 1, 1)
	m.Emit(7, 9, []byte{0xaa}, []byte{0xbb})
	out := m.Result()
	if out.Key(0) != 9 {
		t.Errorf("key = %d, want sKey 9", out.Key(0))
	}
	pay := out.Payload(0)
	if got := binary.LittleEndian.Uint64(pay[:8]); got != 7 {
		t.Errorf("embedded rKey = %d, want 7", got)
	}
	if pay[8] != 0xaa || pay[9] != 0xbb {
		t.Error("payload order wrong")
	}
}

func TestMaterializerCopiesPayload(t *testing.T) {
	m := NewMaterializer("out", 1, 0)
	buf := []byte{42}
	m.Emit(1, 1, buf, nil)
	buf[0] = 0 // caller reuses its buffer
	if got := m.Result().Payload(0)[0]; got != 42 {
		t.Errorf("payload[0] = %d, want 42: materializer aliased caller's buffer", got)
	}
}

// TestMaterializerAllocatesOnlyGrowth: a match is appended to the columns in
// place, so the materializer allocates the doubling steps of its columns —
// under four times the result — and nothing per match.
func TestMaterializerAllocatesOnlyGrowth(t *testing.T) {
	const matches = 100_000
	pay := make([]byte, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMaterializer("out", len(pay), len(pay))
	for i := uint64(0); i < matches; i++ {
		m.Emit(i, i, pay, pay)
	}
	runtime.ReadMemStats(&after)
	out := m.Result()
	if out.Len() != matches {
		t.Fatalf("Len = %d, want %d", out.Len(), matches)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*out.Bytes()); got > limit {
		t.Errorf("materializing %d matches allocated %d B, want ≤ %d B (4 × the result)", matches, got, limit)
	}
}

func TestPairSetEqual(t *testing.T) {
	a, b := NewPairSet(), NewPairSet()
	a.Emit(1, 2, nil, nil)
	a.Emit(1, 2, nil, nil)
	b.Emit(1, 2, nil, nil)
	if a.Equal(b) {
		t.Error("multiset counts differ but Equal returned true")
	}
	b.Emit(1, 2, nil, nil)
	if !a.Equal(b) {
		t.Error("identical multisets not Equal")
	}
	b.Emit(3, 4, nil, nil)
	if a.Equal(b) {
		t.Error("extra pair not detected")
	}
}

func TestTee(t *testing.T) {
	var a, b Counter
	tee := Tee{&a, &b}
	tee.Emit(1, 1, nil, nil)
	if a.Count() != 1 || b.Count() != 1 {
		t.Error("Tee did not fan out")
	}
}

func TestDiscard(t *testing.T) {
	Discard{}.Emit(1, 2, []byte{1}, []byte{2}) // must not panic
}

// emitter hides a collector's EmitBlock: EmitBlock hands it one Emit per
// match.
type emitter struct{ c Collector }

func (e emitter) Emit(rKey, sKey uint64, rPay, sPay []byte) { e.c.Emit(rKey, sKey, rPay, sPay) }

// TestEmitBlockIsEmitPerMatch: every collector, through EmitBlock, ends up
// as it would after one Emit per match of the block, in order — blocks that
// cross the Materializer's growth steps included.
func TestEmitBlockIsEmitPerMatch(t *testing.T) {
	const rows = 3000
	b := Block{
		R: Columns{Keys: make([]uint64, rows), Pay: make([]byte, 2*rows), Width: 2},
		S: Columns{Keys: make([]uint64, rows), Pay: make([]byte, 3*rows), Width: 3},
	}
	for i := range rows {
		b.R.Keys[i], b.S.Keys[i] = uint64(i%97), uint64(i%89)
		b.R.Pay[2*i], b.S.Pay[3*i+2] = byte(i), byte(i>>8)
		b.Pairs = append(b.Pairs, [2]uint32{uint32(i * 7 % rows), uint32(i * 11 % rows)})
	}
	blocks := []Block{b, b, b}
	blocks[1].Pairs = b.Pairs[:1]
	blocks[2].Pairs = b.Pairs[:0]
	collectors := []struct {
		name string
		new  func() Collector
		same func(x, y Collector) bool
	}{
		{"materializer", func() Collector { return NewMaterializer("m", 2, 3) }, func(x, y Collector) bool {
			mx, my := x.(*Materializer).Result(), y.(*Materializer).Result()
			return slices.Equal(mx.Keys(), my.Keys()) && bytes.Equal(mx.PayloadColumn(), my.PayloadColumn())
		}},
		{"rekeyed materializer", func() Collector { return NewRekeyedMaterializer("m", 2, 3) }, func(x, y Collector) bool {
			mx, my := x.(*Materializer).Result(), y.(*Materializer).Result()
			return slices.Equal(mx.Keys(), my.Keys()) && bytes.Equal(mx.PayloadColumn(), my.PayloadColumn())
		}},
		{"pair set", func() Collector { return NewPairSet() }, func(x, y Collector) bool { return x.(*PairSet).Equal(y.(*PairSet)) }},
		{"tee", func() Collector { return Tee{NewPairSet(), &Counter{}} }, func(x, y Collector) bool {
			tx, ty := x.(Tee), y.(Tee)
			return tx[0].(*PairSet).Equal(ty[0].(*PairSet)) && tx[1].(*Counter).Count() == ty[1].(*Counter).Count()
		}},
		{"counter", func() Collector { return &Counter{} }, func(x, y Collector) bool { return x.(*Counter).Count() == y.(*Counter).Count() }},
	}
	for _, c := range collectors {
		blocked, each := c.new(), c.new()
		for _, blk := range blocks {
			EmitBlock(blocked, blk)
			EmitBlock(emitter{each}, blk)
		}
		if !c.same(blocked, each) {
			t.Errorf("%s: blocks and one Emit per match disagree", c.name)
		}
	}
}
