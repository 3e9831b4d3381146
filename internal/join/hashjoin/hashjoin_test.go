package hashjoin

import (
	"bytes"
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
		{"forced multi-cluster", 2000, 2000, 256, 4, 2, 1 << 10},
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
			for _, payW := range []int{0, 4, 8, 13, 248} {
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

// TestSetupRotatingClusters: the rotating side comes back ordered by the
// top bits of the key hash with nothing lost, the input is left alone, the
// worker count does not show, and — the point of using the same hash as the
// directory — each cluster's probes stay inside one window of a stationary
// fragment's buckets.
func TestSetupRotatingClusters(t *testing.T) {
	const width = 5
	sweep(50_000, func(name string, r *relation.Relation) {
		snapshot := r.Clone()
		var first *relation.Relation
		for _, workers := range []int{1, 2, 4, 7} {
			rot, err := clustered(r, width, workers)
			if err != nil {
				t.Fatal(err)
			}
			if first != nil {
				if !rot.Equal(first) {
					t.Fatalf("%s: %d workers cluster differently than 1", name, workers)
				}
				continue
			}
			first = rot
			for i := 1; i < rot.Len(); i++ {
				if relation.HashKey(rot.Key(i-1))>>(64-width) > relation.HashKey(rot.Key(i))>>(64-width) {
					t.Fatalf("%s: tuple %d belongs to an earlier cluster than its predecessor", name, i)
				}
			}
			if !permutes(r, rot.Keys(), rot.PayloadColumn()) {
				t.Fatalf("%s: tuple multiset changed", name)
			}
		}
		if !r.Equal(snapshot) {
			t.Fatalf("%s: input mutated", name)
		}
	})

	// Through the public entry point, against a stationary fragment of its
	// own fan-out.
	rng := rand.New(rand.NewSource(4))
	r := jointest.RandomRelation(rng, "R", 4096, 1024, 4)
	opts := join.Options{L2CacheBytes: 1 << 10}
	b := uint(RadixBits(r.Bytes(), opts))
	if b == 0 {
		t.Fatal("test needs multi-cluster clustering")
	}
	rot, err := Join{}.SetupRotating(r, join.Equi{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := build(jointest.RandomRelation(rng, "S", 1<<17, 1024, 4), 1)
	if 64-st.shift < b {
		t.Fatalf("test needs bucket ids of at least %d bits, have %d", b, 64-st.shift)
	}
	perCluster := uint64(len(st.dir)-1) >> b
	for i := 0; i < rot.Len(); i++ {
		h := relation.HashKey(rot.Key(i))
		if cluster, bucket := h>>(64-b), h>>st.shift; bucket/perCluster != cluster {
			t.Fatalf("tuple %d of cluster %d probes bucket %d, outside the cluster's window", i, cluster, bucket)
		}
	}
}

func TestRadixBits(t *testing.T) {
	tests := []struct {
		bytes, l2 int
		want      int
	}{
		{0, 1 << 20, 0},
		{100, 1 << 20, 0},     // fits in a quarter of L2
		{1 << 20, 1 << 20, 3}, // 2*1MB over 256KB target → 8 clusters
		{64 << 20, join.DefaultL2Bytes, 7},
		{1 << 40, 1 << 20, 14}, // clamped
	}
	for _, tt := range tests {
		opts := join.Options{L2CacheBytes: tt.l2}
		if got := RadixBits(tt.bytes, opts); got != tt.want {
			t.Errorf("RadixBits(%d, l2=%d) = %d, want %d", tt.bytes, tt.l2, got, tt.want)
		}
	}
}

// TestDirBits pins the bucket-id width rule, ⌈log₂ n⌉ − 2.
func TestDirBits(t *testing.T) {
	for _, tt := range []struct {
		n    int
		want uint
	}{
		{0, 0}, {1, 0}, {4, 0}, {5, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 3},
		{250_000, 16}, {1 << 20, 18}, {1<<20 + 1, 19}, {1 << 30, 28},
	} {
		if got := dirBits(tt.n); got != tt.want {
			t.Errorf("dirBits(%d) = %d, want %d", tt.n, got, tt.want)
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
