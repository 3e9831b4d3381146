package relation

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionCoversAllTuples(t *testing.T) {
	r := FromKeys(Schema{Name: "R"}, seqKeys(101))
	for _, n := range []int{1, 2, 3, 6, 101, 200} {
		frags, err := Partition(r, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if len(frags) != n {
			t.Fatalf("Partition(%d) returned %d fragments", n, len(frags))
		}
		total := 0
		for i, f := range frags {
			if err := f.Validate(); err != nil {
				t.Errorf("fragment %d invalid: %v", i, err)
			}
			if f.Index != i || f.Of != n {
				t.Errorf("fragment %d has Index=%d Of=%d", i, f.Index, f.Of)
			}
			total += f.Rel.Len()
		}
		if total != r.Len() {
			t.Errorf("Partition(%d): fragments hold %d tuples, want %d", n, total, r.Len())
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	r := FromKeys(Schema{Name: "R"}, seqKeys(100))
	frags, err := Partition(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if f.Rel.Len() < 16 || f.Rel.Len() > 17 {
			t.Errorf("fragment %d has %d tuples, want 16 or 17", f.Index, f.Rel.Len())
		}
	}
}

func TestPartitionByBytesRespectsChunk(t *testing.T) {
	r := FromKeys(Schema{Name: "R"}, seqKeys(1000))
	for _, chunk := range []int{64, 256, 1 << 10, 1 << 16, 1 << 30} {
		frags, err := PartitionByBytes(r, chunk)
		if err != nil {
			t.Fatalf("PartitionByBytes(%d): %v", chunk, err)
		}
		total := 0
		for _, f := range frags {
			total += f.Rel.Len()
			if sz := EncodedSize(f); sz > chunk && f.Rel.Len() > 1 {
				t.Errorf("chunk %d: fragment %d encodes to %d B", chunk, f.Index, sz)
			}
		}
		if total != r.Len() {
			t.Errorf("chunk %d: fragments hold %d tuples, want %d", chunk, total, r.Len())
		}
	}
	// A chunk below even one tuple's wire size still yields a valid
	// single-tuple-per-fragment plan.
	frags, err := PartitionByBytes(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != r.Len() {
		t.Errorf("1-byte chunk: %d fragments, want %d", len(frags), r.Len())
	}
	if _, err := PartitionByBytes(r, 0); err == nil {
		t.Error("PartitionByBytes(0): want error")
	}
}

func TestPartitionInvalidCount(t *testing.T) {
	r := FromKeys(Schema{Name: "R"}, seqKeys(3))
	for _, n := range []int{0, -1} {
		if _, err := Partition(r, n); err == nil {
			t.Errorf("Partition(%d): want error", n)
		}
	}
}

func TestPartitionByHashDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(rng.Intn(100))
	}
	r := FromKeys(Schema{Name: "R"}, keys)
	frags, err := PartitionByHash(r, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every key value must land in exactly one fragment, and the multiset
	// of keys must be preserved.
	got := map[uint64]int{}
	keyFrag := map[uint64]int{}
	for _, f := range frags {
		for i := 0; i < f.Rel.Len(); i++ {
			k := f.Rel.Key(i)
			got[k]++
			if prev, ok := keyFrag[k]; ok && prev != f.Index {
				t.Fatalf("key %d appears in fragments %d and %d", k, prev, f.Index)
			}
			keyFrag[k] = f.Index
		}
	}
	want := map[uint64]int{}
	for _, k := range keys {
		want[k]++
	}
	for k, c := range want {
		if got[k] != c {
			t.Errorf("key %d count = %d, want %d", k, got[k], c)
		}
	}
}

// perTuplePartition is PartitionByHash as one goroutine appending tuple by
// tuple — the implementation the counting sort replaced, kept as its
// reference: fragment Owner(key) receives the tuple, in input order.
func perTuplePartition(t *testing.T, r *Relation, n int) []*Relation {
	t.Helper()
	parts := make([]*Relation, n)
	for i := range parts {
		parts[i] = New(r.schema, 0)
	}
	for i := 0; i < r.Len(); i++ {
		if err := parts[Owner(r.Key(i), n)].AppendFrom(r, i); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

// numbered builds n tuples with random keys of the given domain whose
// payloads carry the row number, so equal keys stay distinguishable.
func numbered(rng *rand.Rand, n, domain, width int) *Relation {
	r := New(Schema{Name: "R", PayloadWidth: width}, n)
	pay := make([]byte, max(width, 8))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(pay, uint64(i))
		if err := r.Append(uint64(rng.Intn(domain)), pay[:width]); err != nil {
			panic(err)
		}
	}
	return r
}

// TestPartitionByHashMatchesPerTuple: for every chunk count the counting
// sort gives, fragment for fragment, what appending tuple by tuple gives —
// so it is stable, complete and disjoint, payloads move with their keys, and
// the chunk count does not show in the output.
func TestPartitionByHashMatchesPerTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ tuples, domain, width, n int }{
		{0, 1, 4, 3},
		{1, 1, 4, 5},
		{1000, 50, 0, 4},
		{1000, 1 << 40, 4, 3},
		{3001, 200, 8, 5},
		{40_000, 1000, 12, 7},
		{500, 10, 3, 1},
	} {
		r := numbered(rng, tc.tuples, tc.domain, tc.width)
		want := perTuplePartition(t, r, tc.n)
		check := func(label string, got []*Relation) {
			t.Helper()
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Errorf("%d tuples into %d, %s: fragment %d differs from the per-tuple partition (%d tuples, want %d)",
						tc.tuples, tc.n, label, i, got[i].Len(), want[i].Len())
				}
			}
		}
		for _, chunks := range []int{1, 3, 8} {
			ordered, starts := orderByOwner(r, tc.n, chunks)
			got := make([]*Relation, tc.n)
			for i := range got {
				var err error
				if got[i], err = ordered.Slice(starts[i], starts[i+1]); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("%d chunks", chunks), got)
		}
		frags, err := PartitionByHash(r, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Relation, tc.n)
		for i, f := range frags {
			if f.Index != i || f.Of != tc.n {
				t.Errorf("fragment %d has Index=%d Of=%d", i, f.Index, f.Of)
			}
			got[i] = f.Rel
		}
		check("PartitionByHash", got)

		// OrderByOwner is the same fragments, end to end.
		whole, err := Concat(r.schema, frags)
		if err != nil {
			t.Fatal(err)
		}
		if !OrderByOwner(r, tc.n).Equal(whole) {
			t.Errorf("%d tuples into %d: OrderByOwner is not the fragments in owner order", tc.tuples, tc.n)
		}
	}
}

func TestPartitionByHashInvalidCount(t *testing.T) {
	if _, err := PartitionByHash(FromKeys(Schema{Name: "R"}, seqKeys(3)), 0); err == nil {
		t.Error("PartitionByHash(0): want error")
	}
}

// TestOwnerRangeAndBalance: Owner stays in [0, n) and splits sequential and
// random keys about evenly, also for ring sizes that are not powers of two.
func TestOwnerRangeAndBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const keys = 60_000
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 12} {
		for _, gen := range []struct {
			name string
			key  func(i int) uint64
		}{
			{"sequential", func(i int) uint64 { return uint64(i) }},
			{"random", func(int) uint64 { return rng.Uint64() }},
		} {
			counts := make([]int, n)
			for i := 0; i < keys; i++ {
				o := Owner(gen.key(i), n)
				if o < 0 || o >= n {
					t.Fatalf("Owner(%s key %d, %d) = %d", gen.name, i, n, o)
				}
				counts[o]++
			}
			for o, c := range counts {
				if c < keys/n*9/10 || c > keys/n*11/10 {
					t.Errorf("%s keys, %d owners: owner %d holds %d of %d", gen.name, n, o, c, keys)
				}
			}
		}
	}
}

// TestOwnerLeavesKernelBitsFree: the hash kernels index by the top bits of
// HashKey. One owner's share of a table must still reach (almost) every
// value of those bits — with top-bit ownership it would reach 1/n of them
// and every bucket would be n× as long.
func TestOwnerLeavesKernelBitsFree(t *testing.T) {
	const keys, n = 1 << 16, 4
	const top = 10 // 64 keys per owner and bucket on average
	for _, gen := range []struct {
		name string
		key  func(i int) uint64
	}{
		{"sequential", func(i int) uint64 { return uint64(i) }},
		{"strided", func(i int) uint64 { return uint64(i) * 4096 }},
	} {
		seen := make([]map[uint64]int, n)
		for o := range seen {
			seen[o] = map[uint64]int{}
		}
		for i := 0; i < keys; i++ {
			k := gen.key(i)
			seen[Owner(k, n)][HashKey(k)>>(64-top)]++
		}
		for o, buckets := range seen {
			if len(buckets) < (1<<top)*95/100 {
				t.Errorf("%s keys: owner %d reaches %d of %d top-bit buckets", gen.name, o, len(buckets), 1<<top)
			}
			longest := 0
			for _, c := range buckets {
				longest = max(longest, c)
			}
			if mean := keys / n >> top; longest > 4*mean {
				t.Errorf("%s keys: owner %d's longest bucket holds %d keys, mean %d", gen.name, o, longest, mean)
			}
		}
	}
}

// TestPartitionConcatRoundTrip is the multiset-preservation property the
// ring depends on: splitting and re-concatenating must be the identity.
func TestPartitionConcatRoundTrip(t *testing.T) {
	f := func(rawKeys []uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		r := FromKeys(Schema{Name: "R"}, rawKeys)
		frags, err := Partition(r, n)
		if err != nil {
			return false
		}
		back, err := Concat(r.Schema(), frags)
		if err != nil {
			return false
		}
		return back.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFragmentValidate(t *testing.T) {
	rel := FromKeys(Schema{Name: "R"}, seqKeys(1))
	tests := []struct {
		name    string
		f       Fragment
		wantErr bool
	}{
		{"ok", Fragment{Rel: rel, Index: 0, Of: 1}, false},
		{"nil rel", Fragment{Of: 1}, true},
		{"bad of", Fragment{Rel: rel, Of: 0}, true},
		{"index out of range", Fragment{Rel: rel, Index: 2, Of: 2}, true},
		{"negative hops", Fragment{Rel: rel, Of: 1, Hops: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.f.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func seqKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}
