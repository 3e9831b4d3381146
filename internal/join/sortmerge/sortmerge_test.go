package sortmerge

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	if !j.Supports(join.Equi{}) || !j.Supports(join.Band{Width: 3}) {
		t.Error("must support equi and band")
	}
	if j.Supports(join.Theta{Fn: func(a, b uint64) bool { return true }}) {
		t.Error("must not support theta")
	}
}

func TestSetupRejectsTheta(t *testing.T) {
	r := workload.Sequential("R", 4, 0)
	theta := join.Theta{Fn: func(a, b uint64) bool { return true }}
	if _, err := (Join{}).SetupStationary(r, theta, join.Options{}); err == nil {
		t.Error("SetupStationary(theta): want error")
	}
	if _, err := (Join{}).SetupRotating(r, theta, join.Options{}); err == nil {
		t.Error("SetupRotating(theta): want error")
	}
}

func TestEquiMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tests := []struct {
		name   string
		rN, sN int
		domain int
		par    int
	}{
		{"tiny", 10, 10, 5, 1},
		{"duplicates", 300, 200, 8, 1},
		{"sparse", 400, 500, 100000, 1},
		{"parallel", 1500, 1200, 64, 4},
		{"empty R", 0, 10, 5, 1},
		{"empty S", 10, 0, 5, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := jointest.RandomRelation(rng, "R", tt.rN, tt.domain, 4)
			s := jointest.RandomRelation(rng, "S", tt.sN, tt.domain, 4)
			jointest.CheckAgainstOracle(t, Join{}, r, s, join.Equi{}, join.Options{Parallelism: tt.par})
		})
	}
}

func TestBandMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, width := range []uint64{0, 1, 3, 10, 1000} {
		r := jointest.RandomRelation(rng, "R", 300, 200, 4)
		s := jointest.RandomRelation(rng, "S", 250, 200, 4)
		jointest.CheckAgainstOracle(t, Join{}, r, s, join.Band{Width: width}, join.Options{Parallelism: 2})
	}
}

// TestBandNearKeyDomainEdges exercises the saturating arithmetic at 0 and
// MaxUint64.
func TestBandNearKeyDomainEdges(t *testing.T) {
	maxK := ^uint64(0)
	rKeys := []uint64{0, 1, 2, maxK - 1, maxK}
	sKeys := []uint64{0, 3, maxK - 2, maxK}
	r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
	s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
	jointest.CheckAgainstOracle(t, Join{}, r, s, join.Band{Width: 2}, join.Options{})
}

func TestEquiProperty(t *testing.T) {
	f := func(rKeys, sKeys []uint64) bool {
		for i := range rKeys {
			rKeys[i] %= 50
		}
		for i := range sKeys {
			sKeys[i] %= 50
		}
		r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
		s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
		return bothPathsMatchOracle(r, s, join.Equi{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBandProperty(t *testing.T) {
	f := func(rKeys, sKeys []uint64, wRaw uint8) bool {
		for i := range rKeys {
			rKeys[i] %= 100
		}
		for i := range sKeys {
			sKeys[i] %= 100
		}
		p := join.Band{Width: uint64(wRaw % 10)}
		r := relation.FromKeys(relation.Schema{Name: "R"}, rKeys)
		s := relation.FromKeys(relation.Schema{Name: "S"}, sKeys)
		return bothPathsMatchOracle(r, s, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSetupRotatingSorts: SetupRotating orders the fragment by its own key
// prefix — bucket ids non-decreasing, which is all the order a probe walk
// needs — and keeps every tuple, however small the fragment.
func TestSetupRotatingSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := jointest.RandomRelation(rng, "R", 500, 1000, 4)
	rot, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rule := rule(r.Keys())
	id := func(k uint64) uint64 { return (k - rule.Base) >> rule.Shift }
	for i := 1; i < rot.Len(); i++ {
		if id(rot.Key(i)) < id(rot.Key(i-1)) {
			t.Fatalf("SetupRotating left key %d before key %d, a bucket below it", rot.Key(i-1), rot.Key(i))
		}
	}
	got, want := workload.Multiplicities(rot), workload.Multiplicities(r)
	for k, c := range want {
		if got[k] != c {
			t.Errorf("key %d multiplicity changed: %d → %d", k, c, got[k])
		}
	}
	if rot == r {
		t.Error("SetupRotating returned its input as it lies, a fragment small enough to stay in cache")
	}
}

// TestSortProperty: random key columns under a random digit mask, payload
// width and worker count come back from SetupRotating as the stable order of
// their tuples by key prefix — a tuple's bucket id never below its
// predecessor's, tuples of one bucket in input order, every payload beside
// its key — whatever the worker count.
func TestSortProperty(t *testing.T) {
	f := func(keys []uint64, mask uint64, payW, workers uint8) bool {
		for i := range keys {
			keys[i] &= mask
		}
		r := jointest.Numbered(keys, int(payW%17))
		rule := rule(keys)
		rows := make([]int, len(keys))
		for i := range rows {
			rows[i] = i
		}
		id := func(row int) uint64 { return (keys[row] - rule.Base) >> rule.Shift }
		slices.SortStableFunc(rows, func(a, b int) int { return cmp.Compare(id(a), id(b)) })
		want := relation.New(r.Schema(), r.Len())
		for _, row := range rows {
			if err := want.AppendFrom(r, row); err != nil {
				return false
			}
		}
		got, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{Parallelism: int(workers%8) + 1})
		return err == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestJoinToleratesUnsortedRotating checks the robustness path: a caller
// that skips SetupRotating still gets correct results.
func TestJoinToleratesUnsortedRotating(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := jointest.RandomRelation(rng, "R", 200, 40, 4)
	s := jointest.RandomRelation(rng, "S", 200, 40, 4)
	want := join.NewPairSet()
	jointest.Oracle(r, s, join.Equi{}, want)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := join.NewPairSet()
	if err := st.Join(r, got); err != nil { // r not ordered
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("unsorted rotating fragment joined incorrectly")
	}
}

func TestParallelMergeEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := jointest.RandomRelation(rng, "R", 2000, 64, 4)
	s := jointest.RandomRelation(rng, "S", 2000, 64, 4)
	run := func(par int) *join.PairSet {
		st, err := Join{}.SetupStationary(s, join.Band{Width: 2}, join.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := Join{}.SetupRotating(r, join.Band{Width: 2}, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ps := join.NewPairSet()
		if err := st.Join(ordered, ps); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	if !run(1).Equal(run(8)) {
		t.Error("parallel merge differs from serial")
	}
}

func TestStationaryBytes(t *testing.T) {
	s := workload.Sequential("S", 100, 4)
	st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Keys and payload as they were, plus the directory: 100 keys spanning
	// 99 take 25 buckets of four, and one entry ends the last.
	if want := s.Bytes() + 4*26; st.Bytes() != want {
		t.Errorf("Bytes() = %d, want %d", st.Bytes(), want)
	}
}

// bothPathsMatchOracle reports whether s joined with r by p gives the
// oracle's pairs to a collector that takes every match and the oracle's
// number of them to a join.Counter.
func bothPathsMatchOracle(r, s *relation.Relation, p join.Predicate) bool {
	want := join.NewPairSet()
	jointest.Oracle(r, s, p, want)
	st, err := Join{}.SetupStationary(s, p, join.Options{})
	if err != nil {
		return false
	}
	got, n := join.NewPairSet(), &join.Counter{}
	if st.Join(r, got) != nil || st.Join(r, n) != nil {
		return false
	}
	return got.Equal(want) && n.Count() == pairCount(want)
}

func pairCount(p *join.PairSet) (n int64) {
	for _, c := range p.Pairs() {
		n += int64(c)
	}
	return n
}

// TestCountPathEqualsEmitPath: a join.Counter takes the count path, which
// never emits, and a PairSet the emit path; both must find the oracle's
// matches, for ordered and unordered rotating fragments and any parallelism.
func TestCountPathEqualsEmitPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, domain := range []int{300, 32000} {
		r := jointest.RandomRelation(rng, "R", 2000, domain, 4)
		s := jointest.RandomRelation(rng, "S", 1500, domain, 4)
		for _, p := range []join.Predicate{join.Equi{}, join.Band{Width: 0}, join.Band{Width: 1}, join.Band{Width: 3}, join.Band{Width: 1000}} {
			want := join.NewPairSet()
			jointest.Oracle(r, s, p, want)
			for _, par := range []int{1, 4} {
				opts := join.Options{Parallelism: par}
				st, err := Join{}.SetupStationary(s, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				ordered, err := Join{}.SetupRotating(r, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, rot := range []struct {
					name string
					rel  *relation.Relation
				}{{"ordered", ordered}, {"unordered", r}} {
					got, n := join.NewPairSet(), &join.Counter{}
					if err := st.Join(rot.rel, got); err != nil {
						t.Fatal(err)
					}
					if err := st.Join(rot.rel, n); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("domain %d, %s, %s R, parallelism %d", domain, p, rot.name, par)
					if !got.Equal(want) {
						t.Errorf("%s: emitted pairs differ from the oracle's", name)
					}
					if n.Count() != pairCount(got) || n.Count() != pairCount(want) {
						t.Errorf("%s: counted %d, emitted %d, oracle %d", name, n.Count(), pairCount(got), pairCount(want))
					}
				}
			}
		}
	}
}

// TestMergeEdgeCases pins the shapes a fixed window can get wrong: runs of
// one key longer than the window, keys at both ends of the domain under a
// band that saturates, and stationary fragments shorter than the window, of
// one key, or of one tuple.
func TestMergeEdgeCases(t *testing.T) {
	maxK := ^uint64(0)
	heavy := make([]uint64, 0, 300)
	for i := 0; i < 100; i++ {
		heavy = append(heavy, 40, 50, 50)
	}
	for i := 0; i < 100; i++ {
		heavy = append(heavy, uint64(i*7))
	}
	tests := []struct {
		name         string
		rKeys, sKeys []uint64
		widths       []uint64
	}{
		{"heavy key", []uint64{0, 39, 40, 45, 49, 50, 51, 52, 60, 700}, heavy, []uint64{0, 1, 3, 1000}},
		{"domain edges", []uint64{0, 1, 2, 5, maxK - 5, maxK - 2, maxK - 1, maxK},
			[]uint64{0, 0, 1, 3, 9, 1 << 40, maxK - 9, maxK - 3, maxK - 1, maxK, maxK}, []uint64{0, 1, 3, 1 << 63, maxK}},
		{"shorter than the window", []uint64{0, 2, 3, 4, 9, 10, 11, 20, maxK}, []uint64{3, 10, 10, 12}, []uint64{0, 1, 3, maxK}},
		{"one key", []uint64{0, 6, 7, 8, 100}, []uint64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, []uint64{0, 1, 3}},
		{"one tuple", []uint64{0, 4, 5, 6, maxK}, []uint64{5}, []uint64{0, 1, maxK}},
		{"one tuple at the top", []uint64{0, maxK - 1, maxK}, []uint64{maxK}, []uint64{0, 1, maxK}},
	}
	for _, tt := range tests {
		for _, w := range tt.widths {
			r := relation.FromKeys(relation.Schema{Name: "R"}, tt.rKeys)
			s := relation.FromKeys(relation.Schema{Name: "S"}, tt.sKeys)
			if !bothPathsMatchOracle(r, s, join.Band{Width: w}) {
				t.Errorf("%s, band ±%d: differs from the oracle", tt.name, w)
			}
		}
	}
}

// TestDirectory: the layout's contract holds under the key-prefix rule, and
// the rule names as a key's bucket its offset from the fragment's least key,
// shifted right, over at most n/perBucket buckets.
func TestDirectory(t *testing.T) {
	jointest.SweepLayouts(func(name string, s *relation.Relation) {
		got, keys, _, _ := jointest.CheckLayout(t, name, Join{}, s).Layout()
		if want := rule(s.Keys()); got != want {
			t.Fatalf("%s: stationed under %+v, want %+v", name, got, want)
		}
		if most := max(s.Len()/perBucket, 1); got.Buckets > most {
			t.Fatalf("%s: %d buckets, want at most %d", name, got.Buckets, most)
		}
		var least uint64
		if len(keys) > 0 {
			least = slices.Min(keys)
		}
		for _, k := range keys {
			if id, want := got.ID(k), (k-least)>>got.Shift; id != want {
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

// TestKernelCounters pins sortmerge_probes_total and
// sortmerge_window_overflow_total: every probe counts once, whichever path it
// takes, and a probe overflows when its candidates run past the window — for
// a hot key, every probe of it; for a band much wider than a bucket, every
// probe; for a narrow band on uniform keys, few.
func TestKernelCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	uniform := jointest.RandomRelation(rng, "S", 4000, 64000, 4)
	hot := jointest.RandomRelation(rng, "S", 4000, 64000, 4)
	for i := 0; i < 200; i++ {
		if err := hot.Append(32000, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	hotProbes := relation.FromKeys(relation.Schema{Name: "R", PayloadWidth: 4}, []uint64{32000, 32000, 32000, 32001, 31999})
	uniformProbes := jointest.RandomRelation(rng, "R", 4000, 64000, 4)
	tests := []struct {
		name      string
		r, s      *relation.Relation
		p         join.Predicate
		overflows func(overflow, probes int64) bool
	}{
		{"hot key", hotProbes, hot, join.Band{Width: 1}, func(o, p int64) bool { return o == p }},
		{"wide band", uniformProbes, uniform, join.Band{Width: 1000}, func(o, p int64) bool { return o == p }},
		{"narrow band", uniformProbes, uniform, join.Band{Width: 2}, func(o, p int64) bool { return o*10 < p }},
	}
	for _, tt := range tests {
		st, err := Join{}.SetupStationary(tt.s, tt.p, join.Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []join.Collector{&join.Counter{}, join.NewPairSet()} {
			probes, overflow := mProbes.Value(), mOverflow.Value()
			if err := st.Join(tt.r, c); err != nil {
				t.Fatal(err)
			}
			probes, overflow = mProbes.Value()-probes, mOverflow.Value()-overflow
			if probes != int64(tt.r.Len()) {
				t.Errorf("%s, %T: sortmerge_probes_total rose by %d, want %d", tt.name, c, probes, tt.r.Len())
			}
			if !tt.overflows(overflow, probes) {
				t.Errorf("%s, %T: sortmerge_window_overflow_total rose by %d for %d probes", tt.name, c, overflow, probes)
			}
		}
	}
}

// FuzzSortMergeEqualsNested reads both key columns out of data, eight bytes
// a key, alternating sides, and keeps only the bits of mask, which lets the
// fuzzer make keys collide and crowd one bucket; the whole pipeline must
// then emit the pairs the nested-loops join does, for a band as wide as the
// fuzzer picks, and count as many.
func FuzzSortMergeEqualsNested(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00"), uint64(math.MaxUint64), uint64(3), uint8(4), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, and over it again, and again"), uint64(0xff0000ff00ff), uint64(1000), uint8(13), uint8(3))
	// Twelve equal keys, six a side: a bucket longer than the probe's window.
	f.Add(bytes.Repeat([]byte{7}, 8*12), uint64(math.MaxUint64), uint64(0), uint8(3), uint8(2))
	// Keys at both ends of the domain under a band that saturates.
	f.Add(append(bytes.Repeat([]byte{0xff}, 24), make([]byte, 24)...), uint64(math.MaxUint64), uint64(1<<40), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mask, width uint64, payW, par uint8) {
		var sides [2][]uint64
		for i := 0; i+8 <= len(data); i += 8 {
			sides[i/8%2] = append(sides[i/8%2], binary.LittleEndian.Uint64(data[i:])&mask)
		}
		r, s := jointest.Numbered(sides[0], int(payW)), jointest.Numbered(sides[1], int(payW))
		p := join.Band{Width: width}
		opts := join.Options{Parallelism: int(par%8) + 1}

		want := join.NewPairSet()
		ref, err := nested.Join{}.SetupStationary(s, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Join(r, want); err != nil {
			t.Fatal(err)
		}

		st, err := Join{}.SetupStationary(s, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := Join{}.SetupRotating(r, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, counted := join.NewPairSet(), &join.Counter{}
		if err := st.Join(rot, got); err != nil {
			t.Fatal(err)
		}
		if err := st.Join(rot, counted); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || counted.Count() != pairCount(want) {
			t.Fatalf("r=%x s=%x %s payW=%d: counted %d, pairs differ from the nested-loops join's %d", sides[0], sides[1], p, payW, counted.Count(), pairCount(want))
		}
	})
}
