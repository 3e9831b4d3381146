package hashjoin

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/jointest"
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
		name       string
		rN, sN     int
		domain     int
		pay        int
		par        int
		l2Override int
	}{
		{"tiny", 10, 10, 5, 4, 1, 0},
		{"duplicates heavy", 200, 300, 10, 4, 1, 0},
		{"wide domain", 500, 400, 100000, 4, 1, 0},
		{"no payload", 100, 100, 50, 0, 1, 0},
		{"parallel", 1000, 800, 64, 4, 4, 0},
		{"forced multi-cluster", 2000, 2000, 256, 4, 2, 1 << 10}, // a cache target small enough that SetupRotating orders R
		{"empty R", 0, 50, 10, 4, 1, 0},
		{"empty S", 50, 0, 10, 4, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := jointest.RandomRelation(rng, "R", tt.rN, tt.domain, tt.pay)
			s := jointest.RandomRelation(rng, "S", tt.sN, tt.domain, tt.pay)
			opts := join.Options{Parallelism: tt.par, L2CacheBytes: tt.l2Override}
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
		st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{L2CacheBytes: 512})
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

// permutes reports whether the columns (keys, pay) hold exactly the tuples
// of r, which jointest.Numbered built: a payload of four bytes or more names its row,
// so every row must turn up once, with its own key and payload; narrower
// tuples are told apart by key alone.
func permutes(r *relation.Relation, keys []uint64, pay []byte) bool {
	n, payW := r.Len(), r.Schema().PayloadWidth
	if len(keys) != n || len(pay) != n*payW {
		return false
	}
	if payW < 4 {
		left := workload.Multiplicities(r)
		for _, k := range keys {
			left[k]--
		}
		for _, c := range left {
			if c != 0 {
				return false
			}
		}
		return true
	}
	seen := make([]bool, n)
	for i, k := range keys {
		p := pay[i*payW : (i+1)*payW]
		row := int(binary.LittleEndian.Uint32(p))
		if row >= n || seen[row] || k != r.Key(row) || !bytes.Equal(p, r.Payload(row)) {
			return false
		}
		seen[row] = true
	}
	return true
}

// TestBuildDirectoryInvariants is the layout's contract: the directory
// tiles [0, n) in bucket order, every key sits in the bucket its hash
// names, no tuple is lost, repeated or separated from its payload, and the
// worker count does not show in the result.
func TestBuildDirectoryInvariants(t *testing.T) {
	sweep(300_000, func(name string, s *relation.Relation) {
		n := s.Len()
		snapshot := s.Clone()
		var first *stationary
		for _, workers := range []int{1, 2, 4, 7} {
			// build takes the worker count as given, so small inputs run
			// chunked too (with empty chunks when workers > n).
			st := build(s, workers)
			if first == nil {
				first = st
				b := 64 - st.shift
				if wantB := dirBits(n); b != wantB || len(st.dir) != 1<<b+1 {
					t.Fatalf("%s: %d-bit bucket ids and %d directory entries, want %d bits", name, b, len(st.dir), wantB)
				}
				if st.dir[0] != 0 || st.dir[len(st.dir)-1] != uint32(n) {
					t.Fatalf("%s: directory spans [%d, %d), want [0, %d)", name, st.dir[0], st.dir[len(st.dir)-1], n)
				}
				for bkt := 0; bkt+1 < len(st.dir); bkt++ {
					if st.dir[bkt] > st.dir[bkt+1] {
						t.Fatalf("%s: directory not monotone at bucket %d", name, bkt)
					}
					for _, k := range st.keys[st.dir[bkt]:st.dir[bkt+1]] {
						if got := relation.HashKey(k) >> st.shift; got != uint64(bkt) {
							t.Fatalf("%s: key %#x sits in bucket %d, its hash names %d", name, k, bkt, got)
						}
					}
				}
				if !permutes(s, st.keys, st.pay) {
					t.Fatalf("%s: tuple multiset changed", name)
				}
				continue
			}
			if !slices.Equal(st.keys, first.keys) || !bytes.Equal(st.pay, first.pay) || !slices.Equal(st.dir, first.dir) {
				t.Fatalf("%s: %d workers build a different structure than 1", name, workers)
			}
		}
		if !s.Equal(snapshot) {
			t.Fatalf("%s: input mutated", name)
		}
	})
}

// bucketOrdered is the reference for order: the columns of r stably sorted
// by the top b bits of the key hash, tuple by tuple.
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
// its tuples by bucket id — every payload width still beside its key, packed
// into the row-number slot or gathered — the input is left alone, the worker
// count does not show, and the key order is the one build gives the same
// input: one routine orders both sides.
func TestSetupRotatingOrder(t *testing.T) {
	sweep(50_000, func(name string, r *relation.Relation) {
		snapshot := r.Clone()
		b := dirBits(r.Len())
		wantKeys, wantPay := bucketOrdered(r, b)
		for _, workers := range []int{1, 3, 8} {
			keys, pay := order(r, b, nil, workers)
			if !slices.Equal(keys, wantKeys) {
				t.Fatalf("%s: %d workers: keys are not the stable bucket order", name, workers)
			}
			if !bytes.Equal(pay, wantPay) {
				t.Fatalf("%s: %d workers: payloads left their keys", name, workers)
			}
		}
		if st := build(r, 1); !slices.Equal(st.keys, wantKeys) || !bytes.Equal(st.pay, wantPay) {
			t.Fatalf("%s: build orders the same input differently", name)
		}
		if !r.Equal(snapshot) {
			t.Fatalf("%s: input mutated", name)
		}
	})

	// Through the public entry point: ordered above the threshold, to the
	// bits of the fragment's own size; the very relation back below it.
	rng := rand.New(rand.NewSource(4))
	r := jointest.RandomRelation(rng, "R", 40_000, 1024, 3)
	for _, par := range []int{1, 4} {
		rot, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{L2CacheBytes: 1 << 10, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		wantKeys, wantPay := bucketOrdered(r, dirBits(r.Len()))
		if !slices.Equal(rot.Keys(), wantKeys) || !bytes.Equal(rot.PayloadColumn(), wantPay) {
			t.Errorf("SetupRotating with %d workers is not the stable bucket order of its input", par)
		}
	}
	if rot, err := (Join{}).SetupRotating(r, join.Equi{}, join.Options{}); err != nil || rot != r {
		t.Errorf("SetupRotating below the threshold = %p, %v; want its input %p as it lies", rot, err, r)
	}
}

// TestStaysCached pins the rule for leaving a rotating fragment as it lies:
// twice its bytes fit a quarter of the cache target.
func TestStaysCached(t *testing.T) {
	tests := []struct {
		bytes, l2 int
		want      bool
	}{
		{0, 1 << 20, true},
		{100, 1 << 20, true},
		{512 << 10, 0, true}, // the boundary at the default target
		{512<<10 + 1, 0, false},
		{512 << 10, join.DefaultL2Bytes, true},
		{1 << 20, 1 << 20, false},
		{128 << 10, 1 << 20, true}, // overrides are honoured
		{128<<10 + 1, 1 << 20, false},
		{64 << 20, join.DefaultL2Bytes, false},
		{1, 1, false}, // a target too small to quarter holds nothing but the empty fragment
		{0, 1, true},
	}
	for _, tt := range tests {
		opts := join.Options{L2CacheBytes: tt.l2}
		if got := staysCached(tt.bytes, opts); got != tt.want {
			t.Errorf("staysCached(%d, l2=%d) = %v, want %v", tt.bytes, tt.l2, got, tt.want)
		}
	}
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

// stationed is SetupStationary with one probe worker, as the structure it
// returns.
func stationed(t *testing.T, s *relation.Relation) *stationary {
	t.Helper()
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st.(*stationary)
}

// positions is a collector that records, per Emit, the S payload it was
// handed — with jointest.Numbered's four-byte payloads, the S row.
type positions struct{ rows []uint32 }

func (p *positions) Emit(_, _ uint64, _, sPay []byte) {
	p.rows = append(p.rows, binary.LittleEndian.Uint32(sPay))
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

		ordered, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{L2CacheBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ordered == r && r.Len() > 0 {
			t.Fatalf("%s: test needs an ordered rotating fragment", name)
		}
		foreignKeys, foreignPay := order(r, 3, nil, 1)
		foreign, err := relation.Wrap(r.Schema(), foreignKeys, foreignPay)
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

		// One worker hands matches over probe by probe, each probe's in
		// ascending position of S's ordered column: what keeps materialised
		// output byte-identical.
		st := stationed(t, s)
		var wantRows []uint32
		for _, k := range rKeys {
			for at, sk := range st.keys {
				if sk == k {
					wantRows = append(wantRows, binary.LittleEndian.Uint32(st.pay[at*4:]))
				}
			}
		}
		var got positions
		if err := st.Join(r, &got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.rows, wantRows) {
			t.Errorf("%s: matches not handed over in ascending position", name)
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
	opts := join.Options{Parallelism: 4, L2CacheBytes: 64 << 10}
	if clampWorkers(opts.Workers(), s.Len()) < 2 {
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

// TestCheckRows: row numbers and directory offsets are 32 bits, so 2³² rows
// must be refused, not wrapped. (A relation that large cannot be built in a
// test.)
func TestCheckRows(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot hold 2^32")
	}
	limit := int64(math.MaxUint32)
	if err := checkRows(int(limit)); err != nil {
		t.Errorf("2^32-1 rows: %v", err)
	}
	if err := checkRows(int(limit + 1)); err == nil {
		t.Error("2^32 rows: want an error")
	}
}

// TestSetupAllocatesOnlyTheOutput: the scratch is pooled, so a setup call
// that finds a fitting scratch in the pool allocates the structure it
// returns and next to nothing else. The cheapest of several calls is such a
// call: earlier tests leave smaller scratches in the pool, a GC empties it,
// and under the race detector Put drops entries at random, so not every
// call is one — but without pooling none would be.
func TestSetupAllocatesOnlyTheOutput(t *testing.T) {
	s, err := workload.Generate(workload.Spec{Name: "S", Tuples: 100_000, PayloadWidth: 4, KeyDomain: 1 << 21, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cheapest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	var st join.Stationary
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		if st, err = (Join{}).SetupStationary(s, join.Equi{}, join.Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
	}
	// Bytes is the ordered copy plus the directory.
	if limit := uint64(1.02 * float64(st.Bytes())); cheapest > limit {
		t.Errorf("cheapest SetupStationary allocated %d B, want ≤ %d B (1.02 × the structure's %d B)", cheapest, limit, st.Bytes())
	}
}

// FuzzHashJoinEqualsNested reads both key columns out of data, eight bytes
// a key, alternating sides, and keeps only the bits of mask, which lets the
// fuzzer make keys collide; the whole pipeline must then emit the pairs the
// nested-loops join does.
func FuzzHashJoinEqualsNested(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint8(0), uint8(0), uint16(0))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"), uint64(math.MaxUint64), uint8(4), uint8(1), uint16(64))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, and over it again, and again"), uint64(0x0101), uint8(13), uint8(3), uint16(1))
	// Twelve equal keys, six a side: a bucket longer than the probe's window.
	f.Add(bytes.Repeat([]byte{7}, 8*12), uint64(math.MaxUint64), uint8(3), uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, payW, par uint8, l2 uint16) {
		var sides [2][]uint64
		for i := 0; i+8 <= len(data); i += 8 {
			sides[i/8%2] = append(sides[i/8%2], binary.LittleEndian.Uint64(data[i:])&mask)
		}
		r, s := jointest.Numbered(sides[0], int(payW)), jointest.Numbered(sides[1], int(payW))
		opts := join.Options{Parallelism: int(par%8) + 1, L2CacheBytes: int(l2)}

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
