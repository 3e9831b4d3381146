package jointest

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/layout"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// keyShapes are the key distributions a bucket layout must hold up under:
// spread over all buckets, piled into one, piled into a few, in and against
// key order, and the extremes of the key domain side by side.
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand, i, n int) uint64
}{
	{"uniform", func(rng *rand.Rand, _, _ int) uint64 { return rng.Uint64() }},
	{"narrow", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(1000)) }},
	{"all equal", func(*rand.Rand, int, int) uint64 { return 42 }},
	{"16 heavy hitters", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(16)) * 0x0101010101010101 }},
	{"sequential", func(_ *rand.Rand, i, _ int) uint64 { return uint64(i) }},
	{"reversed", func(_ *rand.Rand, i, n int) uint64 { return uint64(n - i) }},
	{"0 and max", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(2)) * math.MaxUint64 }},
}

// SweepLayouts calls fn for every key shape, payload width and size the
// layout tests run, on Numbered relations.
func SweepLayouts(fn func(name string, r *relation.Relation)) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range keyShapes {
		// 300 000 uniform tuples take a bucket id wider than 16 bits under both
		// rules: a second-pass digit of more than a byte.
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 4095, 8192, 50_000, 300_000} {
			for _, payW := range []int{0, 1, 3, 4, 5, 8, 13, 248} {
				if n >= 50_000 && (payW != 4 || n > 50_000 && shape.name != "uniform") {
					continue // the width and shape sweeps do not need the largest inputs
				}
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = shape.key(rng, i, n)
				}
				fn(shape.name+" n="+strconv.Itoa(n)+" payW="+strconv.Itoa(payW), Numbered(keys, payW))
			}
		}
	}
}

// bucketOrdered is the reference for the ordering: the columns of r stably
// sorted by bucket id, tuple by tuple.
func bucketOrdered(r *relation.Relation, rule layout.Rule) ([]uint64, []byte) {
	rows := make([]int, r.Len())
	for i := range rows {
		rows[i] = i
	}
	slices.SortStableFunc(rows, func(x, y int) int {
		return cmp.Compare(rule.ID(r.Key(x)), rule.ID(r.Key(y)))
	})
	keys := make([]uint64, 0, r.Len())
	pay := make([]byte, 0, r.Len()*r.Schema().PayloadWidth)
	for _, row := range rows {
		keys = append(keys, r.Key(row))
		pay = append(pay, r.Payload(row)...)
	}
	return keys, pay
}

// CheckLayout stations s through alg, a kernel built on package layout, and
// checks the layout's contract under whatever rule alg chose: the columns
// are the stable bucket order of s — no tuple lost, repeated or separated
// from its payload, whatever the payload width place moves — the directory tiles [0, n) in bucket order with every key in
// the bucket its id names, SetupRotating orders s the same way, and s is
// left alone. It returns the stationed fragment for the kernel's checks of
// its own rule.
func CheckLayout(t testing.TB, name string, alg join.Algorithm, s *relation.Relation) *layout.Stationary {
	t.Helper()
	snapshot := s.Clone()
	js, err := alg.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := js.(*layout.Stationary)
	rule, keys, pay, dir := st.Layout()
	n := s.Len()
	wantKeys, wantPay := bucketOrdered(s, rule)
	if !slices.Equal(keys, wantKeys) || !bytes.Equal(pay, wantPay) {
		t.Fatalf("%s: columns are not the stable bucket order of the input", name)
	}
	if dir[0] != 0 || dir[len(dir)-1] != uint32(n) || len(dir) <= rule.Buckets {
		t.Fatalf("%s: %d directory entries span [%d, %d), want [0, %d) over %d buckets", name, len(dir), dir[0], dir[len(dir)-1], n, rule.Buckets)
	}
	for b := 0; b+1 < len(dir); b++ {
		if dir[b] > dir[b+1] {
			t.Fatalf("%s: directory not monotone at bucket %d", name, b)
		}
		for _, key := range keys[dir[b]:dir[b+1]] {
			if got := rule.ID(key); got != uint64(b) {
				t.Fatalf("%s: key %#x sits in bucket %d, its id is %d", name, key, b, got)
			}
		}
	}
	rot, err := alg.SetupRotating(s, join.Equi{}, join.Options{L2CacheBytes: 1, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rot.Keys(), keys) || !bytes.Equal(rot.PayloadColumn(), pay) {
		t.Fatalf("%s: SetupRotating orders the same input differently", name)
	}
	if !s.Equal(snapshot) {
		t.Fatalf("%s: input mutated", name)
	}
	return st
}

// CheckSetupAllocations checks that alg's setups allocate the structure they
// return and next to nothing else, stationary and rotating: the layout's
// scratch is pooled. The cheapest of several calls is one that finds a
// fitting scratch in the pool: earlier tests leave smaller scratches in the
// pool, a GC empties it, and under the race detector Put drops entries at
// random, so not every call is one — but without pooling none would be.
func CheckSetupAllocations(t *testing.T, alg join.Algorithm) {
	t.Helper()
	s, err := workload.Generate(workload.Spec{Name: "S", Tuples: 100_000, PayloadWidth: 4, KeyDomain: 1 << 21, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stationary, rotating := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	var st join.Stationary
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		if st, err = alg.SetupStationary(s, join.Equi{}, join.Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		stationary = min(stationary, after.TotalAlloc-before.TotalAlloc)
		runtime.ReadMemStats(&before)
		if _, err := alg.SetupRotating(s, join.Equi{}, join.Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		rotating = min(rotating, after.TotalAlloc-before.TotalAlloc)
	}
	// Bytes is the ordered copy plus the directory.
	if limit := uint64(1.02 * float64(st.Bytes())); stationary > limit {
		t.Errorf("%s: cheapest SetupStationary allocated %d B, want ≤ %d B (1.02 × the structure's %d B)", alg.Name(), stationary, limit, st.Bytes())
	}
	if limit := uint64(1.02 * float64(s.Bytes())); rotating > limit {
		t.Errorf("%s: cheapest SetupRotating allocated %d B, want ≤ %d B (1.02 × the relation's %d B)", alg.Name(), rotating, limit, s.Bytes())
	}
}

// CheckRowLimit checks the row limit of the layout's setups: row numbers
// and directory offsets are 32 bits, so 2³² rows must be refused, not
// wrapped. (A relation that large cannot be built in a test.)
func CheckRowLimit(t *testing.T) {
	t.Helper()
	if strconv.IntSize < 64 {
		t.Skip("int cannot hold 2^32")
	}
	limit := int64(math.MaxUint32)
	if err := layout.CheckRows(int(limit)); err != nil {
		t.Errorf("2^32-1 rows: %v", err)
	}
	if err := layout.CheckRows(int(limit + 1)); err == nil {
		t.Error("2^32 rows: want an error")
	}
}
