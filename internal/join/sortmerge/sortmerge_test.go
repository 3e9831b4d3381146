package sortmerge

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/jointest"
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

func TestSetupRotatingSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := jointest.RandomRelation(rng, "R", 500, 1000, 4)
	rot, err := Join{}.SetupRotating(r, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(rot) {
		t.Error("SetupRotating did not sort")
	}
	got, want := workload.Multiplicities(rot), workload.Multiplicities(r)
	for k, c := range want {
		if got[k] != c {
			t.Errorf("key %d multiplicity changed: %d → %d", k, c, got[k])
		}
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
	if err := st.Join(r, got); err != nil { // r not sorted
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
		sorted, err := SortedCopy(r)
		if err != nil {
			t.Fatal(err)
		}
		ps := join.NewPairSet()
		if err := st.Join(sorted, ps); err != nil {
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
	dir := len(st.(*stationary).dir)
	if dir != 26 {
		t.Errorf("directory has %d entries, want 26", dir)
	}
	if want := s.Bytes() + 4*dir; st.Bytes() != want {
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
// matches, for sorted and unsorted rotating fragments and any parallelism.
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
				sorted, err := Join{}.SetupRotating(r, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, rot := range []struct {
					name string
					rel  *relation.Relation
				}{{"sorted", sorted}, {"unsorted", r}} {
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

// TestDirectory checks the directory against its definition: dir[b] is the
// first row whose key lies in bucket b or a later one, or the start of the
// column's last window if that is earlier.
func TestDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 7, 8, 9, 100, 5000} {
		s := jointest.RandomRelation(rng, "S", n, 3*n, 0)
		st, err := Join{}.SetupStationary(s, join.Equi{}, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sm := st.(*stationary)
		keys, last := sm.keys, max(n-window, 0)
		if cap(keys) < window {
			t.Fatalf("n=%d: key column holds %d, want at least a window", n, cap(keys))
		}
		if got, most := len(sm.dir)-1, max(n/perBucket, 1); got > most {
			t.Errorf("n=%d: %d buckets, want at most %d", n, got, most)
		}
		for b := range sm.dir {
			first := n
			for i, k := range keys {
				if (k-sm.base)>>sm.shift >= uint64(b) {
					first = i
					break
				}
			}
			if want := min(first, last); int(sm.dir[b]) != want {
				t.Fatalf("n=%d: dir[%d] = %d, want %d", n, b, sm.dir[b], want)
			}
		}
	}
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
