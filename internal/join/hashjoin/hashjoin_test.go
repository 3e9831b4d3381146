package hashjoin

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/layout"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

func TestSupports(t *testing.T) {
	var j Join
	if !j.Supports(join.Equi{}) {
		t.Error("must support equi")
	}
	if j.Supports(join.Band{Width: 1}) {
		t.Error("must not support band")
	}
	if j.Supports(join.Theta{Fn: func(a, b uint64) bool { return true }}) {
		t.Error("must not support theta")
	}
}

func TestSetupRejectsUnsupportedPredicate(t *testing.T) {
	var j Join
	r := workload.Sequential("R", 4, 0)
	if _, err := j.SetupStationary(r, join.Band{Width: 1}, join.Options{}); err == nil {
		t.Error("SetupStationary(band): want error")
	}
	if _, err := j.SetupRotating(r, join.Band{Width: 1}, join.Options{}); err == nil {
		t.Error("SetupRotating(band): want error")
	}
}

func TestMatchesOracleSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		name   string
		rN, sN int
		domain int
		pay    int
		par    int
	}{
		{"tiny", 10, 10, 5, 4, 1},
		{"duplicates heavy", 200, 300, 10, 4, 1},
		{"wide domain", 500, 400, 100000, 4, 1},
		{"no payload", 100, 100, 50, 0, 1},
		{"parallel", 1000, 800, 64, 4, 4},
		{"forced multi-cluster", 2000, 2000, 256, 4, 2},
		{"empty R", 0, 50, 10, 4, 1},
		{"empty S", 50, 0, 10, 4, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := jointest.RandomRelation(rng, "R", tt.rN, tt.domain, tt.pay)
			s := jointest.RandomRelation(rng, "S", tt.sN, tt.domain, tt.pay)
			opts := join.Options{Parallelism: tt.par}
			jointest.CheckAgainstOracle(t, Join{}, r, s, join.Equi{}, opts)
		})
	}
}

// TestMatchesOracleProperty drives the radix join with quick-generated keys.
func TestMatchesOracleProperty(t *testing.T) {
	f := func(rKeys, sKeys []uint64) bool {
		// Shrink the domain so matches actually occur.
		for i := range rKeys {
			rKeys[i] %= 64
		}
		for i := range sKeys {
			sKeys[i] %= 64
		}
		r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
		s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
		want := join.NewPairSet()
		jointest.Oracle(r, s, join.Equi{}, want)
		st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
		if err != nil {
			return false
		}
		got := join.NewPairSet()
		if err := st.Join(r, got); err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// keyShapes are the key distributions the layout must hold up under: spread
// over all buckets, piled into one, piled into a few, and the extremes of
// the key domain side by side.
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand, i int) uint64
}{
	{"uniform", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() }},
	{"all equal", func(*rand.Rand, int) uint64 { return 42 }},
	{"16 heavy hitters", func(rng *rand.Rand, _ int) uint64 { return uint64(rng.Intn(16)) * 0x0101010101010101 }},
	{"sequential", func(_ *rand.Rand, i int) uint64 { return uint64(i) }},
	{"0 and max", func(rng *rand.Rand, _ int) uint64 { return uint64(rng.Intn(2)) * math.MaxUint64 }},
}

// sweep calls fn for every key shape, payload width and size up to maxN of
// the setup tests.
func sweep(maxN int, fn func(name string, r *relation.Relation)) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range keyShapes {
		// 300 000 tuples take a bucket id wider than 16 bits: a second-pass
		// digit of more than a byte.
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 4095, 8192, 50_000, 300_000} {
			if n > maxN {
				continue
			}
			for _, payW := range []int{0, 1, 3, 4, 5, 8, 13, 248} {
				if n >= 50_000 && payW != 4 {
					continue // the width sweep does not need the largest inputs
				}
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = shape.key(rng, i)
				}
				fn(shape.name+" n="+strconv.Itoa(n)+" payW="+strconv.Itoa(payW), jointest.Numbered(keys, payW))
			}
		}
	}
}

// bucketOrdered is the reference for the rotating order: the columns of r
// stably sorted by the top b bits of relation.HashKey, tuple by tuple.
func bucketOrdered(r *relation.Relation, b uint) ([]uint64, []byte) {
	rows := make([]int, r.Len())
	for i := range rows {
		rows[i] = i
	}
	bucket := func(row int) uint64 { return relation.HashKey(r.Key(row)) >> (64 - b) }
	slices.SortStableFunc(rows, func(x, y int) int { return cmp.Compare(bucket(x), bucket(y)) })
	keys := make([]uint64, 0, r.Len())
	pay := make([]byte, 0, r.Len()*r.Schema().PayloadWidth)
	for _, row := range rows {
		keys = append(keys, r.Key(row))
		pay = append(pay, r.Payload(row)...)
	}
	return keys, pay
}

// TestSetupRotatingOrder: the rotating side comes back as the stable sort of
// its tuples by the top dirBits(n) bits of relation.HashKey — every payload
// width still beside its key — the input is left alone and the worker count
// does not show, at every size: a fragment small enough to stay in cache is
// ordered too.
func TestSetupRotatingOrder(t *testing.T) {
	sweep(50_000, func(name string, r *relation.Relation) {
		snapshot := r.Clone()
		wantKeys, wantPay := bucketOrdered(r, dirBits(r.Len()))
		for _, par := range []int{1, 3, 8} {
			rot, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rot.Keys(), wantKeys) {
				t.Fatalf("%s: %d workers: keys are not the stable bucket order", name, par)
			}
			if !bytes.Equal(rot.PayloadColumn(), wantPay) {
				t.Fatalf("%s: %d workers: payloads left their keys", name, par)
			}
		}
		if !r.Equal(snapshot) {
			t.Fatalf("%s: input mutated", name)
		}
	})
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 100, 40_000} {
		r := jointest.RandomRelation(rng, "R", n, 1024, 3)
		wantKeys, wantPay := bucketOrdered(r, dirBits(r.Len()))
		rot, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rot == r || !slices.Equal(rot.Keys(), wantKeys) || !bytes.Equal(rot.PayloadColumn(), wantPay) {
			t.Errorf("%d tuples: SetupRotating left the fragment out of the stable bucket order", n)
		}
	}
}

// TestBuildDirectoryInvariants: the layout's contract holds under the hash
// rule, and the rule names as a key's bucket the top dirBits(n) bits of
// relation.HashKey.
func TestBuildDirectoryInvariants(t *testing.T) {
	jointest.SweepLayouts(func(name string, s *relation.Relation) {
		got, keys, _, _ := jointest.CheckLayout(t, name, Join{}, s).Layout()
		if want := rule(s.Keys()); got != want || got.Buckets != 1<<dirBits(s.Len()) {
			t.Fatalf("%s: stationed under %+v, want %+v over 2^%d buckets", name, got, want, dirBits(s.Len()))
		}
		for _, k := range keys {
			if id, want := got.ID(k), relation.HashKey(k)>>got.Shift; id != want {
				t.Fatalf("%s: key %#x has bucket %d, want %d", name, k, id, want)
			}
		}
	})
}

// TestSetupAllocatesOnlyTheOutput: both setups allocate the structure they
// return and next to nothing else.
func TestSetupAllocatesOnlyTheOutput(t *testing.T) {
	jointest.CheckSetupAllocations(t, Join{})
}

// TestCheckRows: the row limit both setups apply, layout.CheckRows, refuses
// 2³² rows rather than wrap the 32-bit row numbers.
func TestCheckRows(t *testing.T) {
	jointest.CheckRowLimit(t)
}

// TestDirBits pins the bucket-id width rule, ⌈log₂ n⌉ − 1.
func TestDirBits(t *testing.T) {
	for _, tt := range []struct {
		n    int
		want uint
	}{
		{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}, {16, 3}, {17, 4},
		{50_000, 15}, {250_000, 17}, {1 << 20, 19}, {1<<20 + 1, 20}, {1 << 30, 29},
	} {
		if got := dirBits(tt.n); got != tt.want {
			t.Errorf("dirBits(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// inBucket returns `distinct` different keys, the first one ≥ from, whose
// bucket among 2^b is bkt.
func inBucket(b uint, bkt uint64, from uint64, distinct int) []uint64 {
	var keys []uint64
	for k := from; len(keys) < distinct; k++ {
		if b == 0 || relation.HashKey(k)>>(64-b) == bkt {
			keys = append(keys, k)
		}
	}
	return keys
}

// repeated returns n copies of k.
func repeated(k uint64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = k
	}
	return keys
}

// stationed is SetupStationary with one probe worker.
func stationed(t *testing.T, s *relation.Relation) join.Stationary {
	t.Helper()
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWindowScan: the fixed-window probe, counting and emitting, against the
// nested-loops join on the stationary shapes where the window could go wrong
// — fewer keys than the window, buckets of exactly W, W+1 and many more keys,
// a bucket at the column's end where the window is clamped, the extremes of
// the key domain — and on rotating fragments in every order the ring can
// deliver: as generated, ordered for their own size, ordered for a foreign
// fan-out. Run it under -race: the four-worker rows probe concurrently.
func TestWindowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := map[string][]uint64{
		"all equal, W-1":     repeated(42, window-1),
		"all equal, W":       repeated(42, window),
		"all equal, W+1":     repeated(42, window+1),
		"all equal, 100":     repeated(42, 100),
		"0 and max":          append(repeated(0, 7), repeated(math.MaxUint64, 6)...),
		"one key is half":    append(repeated(7, 100), inBucket(0, 0, 1000, 100)...),
		"heavy among random": append(repeated(99, 300), jointest.RandomRelation(rng, "S", 300, 100, 0).Keys()...),
	}
	for n := 0; n <= 9; n++ {
		shapes["random n="+strconv.Itoa(n)] = jointest.RandomRelation(rng, "S", n, 6, 0).Keys()
	}
	// Buckets of W-1 … W+2 distinct and repeated keys at the very end of the
	// column, behind filler of other buckets, and with no filler at all.
	for _, filler := range []int{0, 60} {
		for inLast := 1; inLast <= window+2; inLast++ {
			n := filler + inLast
			b := dirBits(n)
			lastBkt := uint64(1)<<b - 1
			fill := inBucket(b, 0, 0, filler)
			shapes["last bucket, distinct, filler="+strconv.Itoa(filler)+" n="+strconv.Itoa(inLast)] =
				append(slices.Clone(fill), inBucket(b, lastBkt, 0, inLast)...)
			shapes["last bucket, repeated, filler="+strconv.Itoa(filler)+" n="+strconv.Itoa(inLast)] =
				append(slices.Clone(fill), repeated(inBucket(b, lastBkt, 0, 1)[0], inLast)...)
		}
	}

	for name, sKeys := range shapes {
		s := jointest.Numbered(sKeys, 4)
		// Every S key twice, in shuffled order, among keys S does not hold
		// (some from S's own buckets, which the window then compares).
		rKeys := append(slices.Clone(sKeys), sKeys...)
		rKeys = append(rKeys, inBucket(0, 0, 1<<40, 50)...)
		rKeys = append(rKeys, 0, 1, math.MaxUint64, math.MaxUint64-1)
		rng.Shuffle(len(rKeys), func(i, j int) { rKeys[i], rKeys[j] = rKeys[j], rKeys[i] })
		r := jointest.Numbered(rKeys, 4)

		want := join.NewPairSet()
		ref, err := nested.Join{}.SetupStationary(s, join.Equi{}, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Join(r, want); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, c := range want.Pairs() {
			total += int64(c)
		}

		ordered, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ordered == r && r.Len() > 0 {
			t.Fatalf("%s: test needs an ordered rotating fragment", name)
		}
		// Ordered as a fragment of 16 tuples would be: by three bits.
		foreign, err := layout.Rotating(r, func([]uint64) layout.Rule { return rule(make([]uint64, 16)) }, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for rotName, rot := range map[string]*relation.Relation{"as it lies": r, "ordered": ordered, "foreign fan-out": foreign} {
				var counted join.Counter
				emitted := join.NewPairSet()
				if err := st.Join(rot, &counted); err != nil {
					t.Fatal(err)
				}
				if err := st.Join(rot, emitted); err != nil {
					t.Fatal(err)
				}
				if counted.Count() != total {
					t.Errorf("%s, R %s, %d workers: counted %d matches, nested-loops has %d", name, rotName, par, counted.Count(), total)
				}
				if !emitted.Equal(want) {
					t.Errorf("%s, R %s, %d workers: emitted pairs differ from nested-loops'", name, rotName, par)
				}
			}
		}
	}
}

// TestProbeCounters: every probed tuple is counted once, and a probe is
// counted as an overflow exactly when its bucket holds more keys than the
// window — on both probe paths.
func TestProbeCounters(t *testing.T) {
	// The first bucket holds W+1 keys, the last holds W, the others none.
	b := dirBits(2*window + 1)
	long, full := inBucket(b, 0, 0, window+1), inBucket(b, 1<<b-1, 0, window)
	st := stationed(t, jointest.Numbered(append(slices.Clone(long), full...), 4))
	r := jointest.Numbered(append(repeated(long[0], 5), append(repeated(full[0], 7), inBucket(b, 1, 0, 3)...)...), 4)
	for name, c := range map[string]join.Collector{"count": &join.Counter{}, "emit": join.NewPairSet()} {
		probes, overflow := mProbes.Value(), mOverflow.Value()
		if err := st.Join(r, c); err != nil {
			t.Fatal(err)
		}
		if got := mProbes.Value() - probes; got != int64(r.Len()) {
			t.Errorf("%s: hashjoin_probes_total rose by %d, want %d", name, got, r.Len())
		}
		if got := mOverflow.Value() - overflow; got != 5 {
			t.Errorf("%s: hashjoin_window_overflow_total rose by %d, want 5", name, got)
		}
	}
}

func TestStationaryBytesPositive(t *testing.T) {
	s := workload.Sequential("S", 100, 4)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes() < s.Bytes() {
		t.Errorf("Bytes() = %d, want ≥ data volume %d", st.Bytes(), s.Bytes())
	}
}

// TestCountPathEqualsEmitPath: a MatchCounter is told the number of matches
// every other collector is handed one by one, and neither depends on the
// number of probe workers.
func TestCountPathEqualsEmitPath(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tt := range []struct {
		name           string
		rN, sN, domain int
	}{
		{"selective", 3000, 3000, 100_000},
		{"duplicates heavy", 3000, 3000, 100},
		{"one key", 500, 700, 1},
		{"no match", 1000, 0, 10},
	} {
		r := jointest.RandomRelation(rng, "R", tt.rN, tt.domain, 4)
		s := jointest.RandomRelation(rng, "S", tt.sN, tt.domain, 4)
		want := join.NewPairSet()
		jointest.Oracle(r, s, join.Equi{}, want)
		var total int64
		for _, c := range want.Pairs() {
			total += int64(c)
		}
		for _, par := range []int{1, 8} {
			st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			var counted join.Counter
			emitted := join.NewPairSet()
			if err := st.Join(r, &counted); err != nil {
				t.Fatal(err)
			}
			if err := st.Join(r, emitted); err != nil {
				t.Fatal(err)
			}
			if counted.Count() != total {
				t.Errorf("%s, %d workers: counted %d matches, oracle has %d", tt.name, par, counted.Count(), total)
			}
			if !emitted.Equal(want) {
				t.Errorf("%s, %d workers: emitted pairs differ from the oracle's", tt.name, par)
			}
		}
	}
}

// TestParallelSetupJoinCount: on inputs large enough for both setups to
// really run chunk-parallel through the public entry points, the join finds
// Σₖ |Rₖ|·|Sₖ| matches. (The pair-by-pair oracle is quadratic.)
func TestParallelSetupJoinCount(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	r := jointest.RandomRelation(rng, "R", 60_000, 2_000, 4)
	s := jointest.RandomRelation(rng, "S", 60_000, 2_000, 4)
	opts := join.Options{Parallelism: 4}
	if layout.Workers(opts, s.Len()) < 2 {
		t.Fatal("test needs a parallel setup")
	}
	want := int64(workload.ExpectedMatches(workload.Multiplicities(r), workload.Multiplicities(s)))
	st, err := Join{}.SetupStationary(s, join.Equi{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := Join{}.SetupRotating(r, join.Equi{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var c join.Counter
	if err := st.Join(rot, &c); err != nil {
		t.Fatal(err)
	}
	if c.Count() != want {
		t.Errorf("counted %d matches, want %d", c.Count(), want)
	}
}

func TestSelfJoinCount(t *testing.T) {
	// Self-join of a relation with unique keys has exactly n matches.
	s := workload.Sequential("S", 5000, 4)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c join.Counter
	if err := st.Join(s, &c); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 5000 {
		t.Errorf("self-join count = %d, want 5000", c.Count())
	}
}

// FuzzHashJoinEqualsNested reads both key columns out of data, eight bytes
// a key, alternating sides, and keeps only the bits of mask, which lets the
// fuzzer make keys collide; the whole pipeline must then emit the pairs the
// nested-loops join does.
func FuzzHashJoinEqualsNested(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint8(0), uint8(0))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"), uint64(math.MaxUint64), uint8(4), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, and over it again, and again"), uint64(0x0101), uint8(13), uint8(3))
	// Twelve equal keys, six a side: a bucket longer than the probe's window.
	f.Add(bytes.Repeat([]byte{7}, 8*12), uint64(math.MaxUint64), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, payW, par uint8) {
		var sides [2][]uint64
		for i := 0; i+8 <= len(data); i += 8 {
			sides[i/8%2] = append(sides[i/8%2], binary.LittleEndian.Uint64(data[i:])&mask)
		}
		r, s := jointest.Numbered(sides[0], int(payW)), jointest.Numbered(sides[1], int(payW))
		opts := join.Options{Parallelism: int(par%8) + 1}

		want := join.NewPairSet()
		ref, err := nested.Join{}.SetupStationary(s, join.Equi{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Join(r, want); err != nil {
			t.Fatal(err)
		}

		st, err := Join{}.SetupStationary(s, join.Equi{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := Join{}.SetupRotating(r, join.Equi{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := join.NewPairSet()
		if err := st.Join(rot, got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("r=%x s=%x payW=%d: pairs differ from the nested-loops join's", sides[0], sides[1], payW)
		}
	})
}
