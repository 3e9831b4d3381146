package sortmerge

import (
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
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// stableOracle sorts r with the standard library's stable sort; it shares
// no code with the radix sort.
func stableOracle(r *relation.Relation) *relation.Relation {
	rows := make([]int, r.Len())
	for i := range rows {
		rows[i] = i
	}
	slices.SortStableFunc(rows, func(a, b int) int { return cmp.Compare(r.Key(a), r.Key(b)) })
	out := relation.New(r.Schema(), r.Len())
	for _, row := range rows {
		if err := out.AppendFrom(r, row); err != nil {
			panic(err)
		}
	}
	return out
}

// keyShapes are key distributions chosen by how many digit passes they
// force: an even and an odd count exercise both ping-pong parities.
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand, i, n int) uint64
}{
	{"1 pass", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(200)) }},
	{"2 passes", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(1000)) }},
	{"3 passes", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(1 << 21)) }},
	{"8 passes", func(rng *rand.Rand, _, _ int) uint64 { return rng.Uint64() }},
	{"all equal", func(*rand.Rand, int, int) uint64 { return 42 }},
	{"top byte only", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(256)) << 56 }},
	{"0 and max", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(2)) * math.MaxUint64 }},
	{"reversed", func(_ *rand.Rand, i, n int) uint64 { return uint64(n - i) }},
}

// TestSortedCopyMatchesStableOracle is the sort's contract: for every key
// shape, size, payload width and worker count the result equals the stable
// reference tuple for tuple, and the input is left alone.
func TestSortedCopyMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shape := range keyShapes {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 4095, 8192, 50_000} {
			for _, payW := range []int{0, 4, 8, 13, 248} {
				if n == 50_000 && payW != 4 {
					continue // the width sweep does not need the largest input
				}
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = shape.key(rng, i, n)
				}
				r := jointest.Numbered(keys, payW)
				snapshot := r.Clone()
				want := stableOracle(r)
				for _, workers := range []int{1, 2, 4, 7} {
					// sortedCopy takes the worker count as given, so small
					// inputs run chunked too (with empty chunks when
					// workers > n).
					got, err := sortedCopy(r, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s n=%d payW=%d workers=%d: differs from the stable oracle", shape.name, n, payW, workers)
					}
				}
				if !r.Equal(snapshot) {
					t.Fatalf("%s n=%d payW=%d: input mutated", shape.name, n, payW)
				}
			}
		}
	}
}

// TestParallelSortedCopyEqualsSequential: the sort is stable, so the
// worker count cannot show in the result — not even in the order of
// tuples with equal keys.
func TestParallelSortedCopyEqualsSequential(t *testing.T) {
	for _, n := range []int{0, 1, 100, 4095, 4096, 8192, 50_000} {
		r, err := workload.Generate(workload.Spec{Name: "R", Tuples: n, PayloadWidth: 4, KeyDomain: 1000, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := SortedCopy(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			par, err := ParallelSortedCopy(r, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !par.Equal(seq) {
				t.Errorf("n=%d workers=%d: differs from SortedCopy", n, workers)
			}
		}
	}
}

func TestSortedCopyAlreadySorted(t *testing.T) {
	r := workload.Sequential("R", 20_000, 4)
	for _, workers := range []int{1, 4} {
		got, err := ParallelSortedCopy(r, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("workers=%d: already-sorted input should be returned unchanged", workers)
		}
	}
}

// TestSortProperty: random key columns under a random digit mask, width
// and worker count against the stable oracle.
func TestSortProperty(t *testing.T) {
	f := func(keys []uint64, mask uint64, payW, workers uint8) bool {
		for i := range keys {
			keys[i] &= mask
		}
		r := jointest.Numbered(keys, int(payW%17))
		got, err := sortedCopy(r, int(workers%8)+1)
		return err == nil && got.Equal(stableOracle(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzRadixSortedCopy reads the key column out of data, eight bytes a key,
// and keeps only the bits of mask, which lets the fuzzer switch digits on
// and off.
func FuzzRadixSortedCopy(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint8(0), uint8(0))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"), uint64(math.MaxUint64), uint8(4), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint64(0xff0000ff00ff), uint8(13), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, payW, workers uint8) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[i*8:]) & mask
		}
		r := jointest.Numbered(keys, int(payW))
		snapshot := r.Clone()
		got, err := sortedCopy(r, int(workers%8)+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(stableOracle(r)) {
			t.Fatalf("keys %x payW=%d workers=%d: differs from the stable oracle", keys, payW, workers%8+1)
		}
		if !r.Equal(snapshot) {
			t.Fatal("input mutated")
		}
	})
}

// TestCheckRows: row numbers are 32 bits, so 2³² rows must be refused, not
// wrapped. (A relation that large cannot be built in a test.)
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
// that finds a fitting scratch in the pool allocates its output columns
// and next to nothing else. The cheapest of several calls is such a call:
// earlier tests leave smaller scratches in the pool, a GC empties it, and
// under the race detector Put drops entries at random, so not every call
// is one — but without pooling none would be.
func TestSetupAllocatesOnlyTheOutput(t *testing.T) {
	r, err := workload.Generate(workload.Spec{Name: "R", Tuples: 100_000, PayloadWidth: 4, KeyDomain: 1 << 21, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cheapest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		if _, err := (Join{}).SetupRotating(r, join.Equi{}, join.Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(1.02 * float64(r.Bytes())); cheapest > limit {
		t.Errorf("cheapest SetupRotating allocated %d B, want ≤ %d B (1.02 × the relation's %d B)", cheapest, limit, r.Bytes())
	}
}
