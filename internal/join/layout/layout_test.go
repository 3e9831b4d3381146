package layout_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/layout"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/relation"
)

// kernels are the two bucket rules, each through the kernel that owns it:
// the hash rule evaluates equality only, the key-prefix rule any band.
var kernels = []struct {
	name string
	alg  join.Algorithm
	pred func(w uint64) join.Predicate
}{
	{"hash", hashjoin.Join{}, nil},
	{"sortmerge", sortmerge.Join{}, func(w uint64) join.Predicate { return join.Band{Width: w} }},
}

// predicate is kernel k's predicate for the band ±w, or nil if it has none.
func predicate(pred func(uint64) join.Predicate, w uint64) join.Predicate {
	switch {
	case pred != nil:
		return pred(w)
	case w == 0:
		return join.Equi{}
	}
	return nil
}

func station(t testing.TB, alg join.Algorithm, s *relation.Relation, p join.Predicate, opts join.Options) *layout.Stationary {
	t.Helper()
	st, err := alg.SetupStationary(s, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*layout.Stationary)
}

func repeated(k uint64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = k
	}
	return keys
}

func pairCount(p *join.PairSet) (n int64) {
	for _, c := range p.Pairs() {
		n += int64(c)
	}
	return n
}

// TestOrderIgnoresWorkerCount: under both rules, the ordering and the
// directory it writes come out the same whether one worker orders the
// fragment or several, even workers with empty chunks. (The kernels' tests
// check the rest of the layout's contract under their own rules.)
func TestOrderIgnoresWorkerCount(t *testing.T) {
	jointest.SweepLayouts(func(name string, s *relation.Relation) {
		for _, k := range kernels {
			rule, keys, pay, dir := station(t, k.alg, s, join.Equi{}, join.Options{}).Layout()
			for _, workers := range []int{2, 7} {
				k2, p2, d2 := layout.Order(s, rule, workers)
				if !slices.Equal(k2, keys) || !bytes.Equal(p2, pay) || !slices.Equal(d2, dir) {
					t.Fatalf("%s: %s: %d workers order differently than 1", k.name, name, workers)
				}
			}
		}
	})
}

// TestEdgeCases is the probe's edge-case table, under both rules, against
// the oracle: keys at both ends of the domain under bands that saturate, S
// shorter than the window (probed for MaxUint64 too), a heavy key longer
// than the window, all-equal S and S of one tuple; every band width, R
// sorted, in bucket order and unordered, one and four probe workers; the
// count path, the emit path and the oracle agree.
func TestEdgeCases(t *testing.T) {
	const maxK = math.MaxUint64
	rng := rand.New(rand.NewSource(31))
	heavy := append(repeated(50, 40), repeated(40, 12)...)
	for i := 0; i < 100; i++ {
		heavy = append(heavy, uint64(i*7))
	}
	uniform := jointest.RandomRelation(rng, "S", 300, 2000, 0).Keys()
	shapes := []struct {
		name string
		s    []uint64
	}{
		{"domain edges", []uint64{0, 0, 1, 3, 9, 1 << 40, maxK - 9, maxK - 3, maxK - 1, maxK, maxK}},
		{"shorter than the window", []uint64{3, 10, 10}},
		{"shorter than the window, at the top", []uint64{maxK - 3, maxK - 1, maxK}},
		{"heavy key", heavy},
		{"all equal", repeated(7, 20)},
		{"one tuple", []uint64{5}},
		{"one tuple at zero", []uint64{0}},
		{"one tuple at the top", []uint64{maxK}},
		{"empty", nil},
		{"uniform", uniform},
	}
	for _, shape := range shapes {
		s := jointest.Numbered(shape.s, 4)
		// S's first keys and their neighbours, the ends of the domain, and
		// keys S does not hold.
		var rKeys []uint64
		for _, k := range append(slices.Clone(shape.s[:min(len(shape.s), 40)]), 0, 1, 2, 5, 1<<40, maxK-2, maxK-1, maxK) {
			rKeys = append(rKeys, k, k+1, k-1, k+3, k-3, k+1000)
		}
		rKeys = append(rKeys, jointest.RandomRelation(rng, "R", 50, 3000, 0).Keys()...)
		rng.Shuffle(len(rKeys), func(i, j int) { rKeys[i], rKeys[j] = rKeys[j], rKeys[i] })
		unordered := jointest.Numbered(rKeys, 4)
		inOrder := slices.Clone(rKeys)
		slices.Sort(inOrder)
		sorted := jointest.Numbered(inOrder, 4)
		for _, k := range kernels {
			for _, w := range []uint64{0, 1, 3, 1000, 1 << 40} {
				p := predicate(k.pred, w)
				if p == nil {
					continue
				}
				want := join.NewPairSet()
				jointest.Oracle(unordered, s, p, want)
				ordered, err := k.alg.SetupRotating(unordered, p, join.Options{L2CacheBytes: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 4} {
					st := station(t, k.alg, s, p, join.Options{Parallelism: par})
					for _, r := range []struct {
						name string
						rel  *relation.Relation
					}{{"sorted", sorted}, {"bucket-ordered", ordered}, {"unordered", unordered}} {
						counted, emitted := &join.Counter{}, join.NewPairSet()
						if err := st.Join(r.rel, counted); err != nil {
							t.Fatal(err)
						}
						if err := st.Join(r.rel, emitted); err != nil {
							t.Fatal(err)
						}
						name := k.name + ", " + shape.name + ", " + p.String() + ", R " + r.name + ", parallelism " + strconv.Itoa(par)
						if !emitted.Equal(want) {
							t.Errorf("%s: emitted pairs differ from the oracle's", name)
						}
						if counted.Count() != pairCount(want) {
							t.Errorf("%s: counted %d, oracle %d", name, counted.Count(), pairCount(want))
						}
					}
				}
			}
		}
	}
}

// positions records, per Emit, the S payload it was handed — with
// jointest.Numbered's four-byte payloads, the S row.
type positions struct{ rows []uint32 }

func (p *positions) Emit(_, _ uint64, _, sPay []byte) {
	p.rows = append(p.rows, binary.LittleEndian.Uint32(sPay))
}

// TestEmitOrder: one worker hands matches over probe by probe, each probe's
// in ascending row of S's ordered column — S's bucket order, not key order —
// which is what keeps materialised output byte-identical from run to run.
func TestEmitOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sKeys := append(repeated(99, 30), jointest.RandomRelation(rng, "S", 3000, 4000, 0).Keys()...)
	s := jointest.Numbered(sKeys, 4)
	r := jointest.RandomRelation(rng, "R", 2000, 4100, 4)
	for _, k := range kernels {
		for _, w := range []uint64{0, 2, 300} {
			p := predicate(k.pred, w)
			if p == nil {
				continue
			}
			st := station(t, k.alg, s, p, join.Options{})
			_, keys, pay, _ := st.Layout()
			var want []uint32
			for _, rk := range r.Keys() {
				for at, sk := range keys {
					if p.Matches(rk, sk) {
						want = append(want, binary.LittleEndian.Uint32(pay[at*4:]))
					}
				}
			}
			var got positions
			if err := st.Join(r, &got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.rows, want) {
				t.Errorf("%s, %s: matches not handed over in ascending position", k.name, p)
			}
		}
	}
}

// matches records, in order, every match an emitting probe hands over, as
// its (rKey, sKey, rPay, sPay) bytes.
type matches struct {
	mu   sync.Mutex
	seen []byte
}

func (m *matches) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seen = binary.LittleEndian.AppendUint64(m.seen, rKey)
	m.seen = binary.LittleEndian.AppendUint64(m.seen, sKey)
	m.seen = append(append(m.seen, rPay...), sPay...)
}

// TestCountingNeverPlaces: under both rules and every payload width place
// moves differently, a stationed fragment that is only ever counted never
// places its payloads; its first emitting probe places them, and a count
// after it hands an emitting collector the (rKey, sKey, rPay, sPay) sequence
// a fragment that was never counted hands it.
func TestCountingNeverPlaces(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, payW := range []int{0, 3, 4, 8, 13} {
		s := jointest.RandomRelation(rng, "S", 5000, 3000, payW)
		r := jointest.RandomRelation(rng, "R", 4000, 3000, 5)
		for _, k := range kernels {
			name := k.name + ", payload " + strconv.Itoa(payW)
			counted := station(t, k.alg, s, join.Equi{}, join.Options{})
			before := layout.Placements()
			for i := 0; i < 2; i++ {
				if err := counted.Join(r, &join.Counter{}); err != nil {
					t.Fatal(err)
				}
			}
			if counted.Placed() || layout.Placements() != before {
				t.Fatalf("%s: counting placed the payloads", name)
			}
			after, alone := &matches{}, &matches{}
			if err := counted.Join(r, after); err != nil {
				t.Fatal(err)
			}
			if !counted.Placed() || layout.Placements() != before+1 {
				t.Fatalf("%s: the first emitting probe did not place the payloads once", name)
			}
			if err := station(t, k.alg, s, join.Equi{}, join.Options{}).Join(r, alone); err != nil {
				t.Fatal(err)
			}
			if len(alone.seen) == 0 || !bytes.Equal(after.seen, alone.seen) {
				t.Errorf("%s: count then emit hands over another sequence than emit alone", name)
			}
		}
	}
}

// TestFirstEmitPlacesOnce: two concurrent Joins of four probe workers each
// race to be the first emitting probe of a fragment; it places its payloads
// once, and both get every match. (Under -race, a worker that read the
// payloads before they were placed is a reported race.)
func TestFirstEmitPlacesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := jointest.RandomRelation(rng, "S", 6000, 3000, 4)
	r := jointest.RandomRelation(rng, "R", 3000, 3000, 4)
	want := join.NewPairSet()
	jointest.Oracle(r, s, join.Equi{}, want)
	for _, k := range kernels {
		st := station(t, k.alg, s, join.Equi{}, join.Options{Parallelism: 4})
		before := layout.Placements()
		got := [2]*join.PairSet{join.NewPairSet(), join.NewPairSet()}
		var wg sync.WaitGroup
		for _, c := range got {
			wg.Add(1)
			go func(c *join.PairSet) {
				defer wg.Done()
				if err := st.Join(r, c); err != nil {
					t.Error(err)
				}
			}(c)
		}
		wg.Wait()
		if n := layout.Placements() - before; n != 1 {
			t.Errorf("%s: %d placements, want 1", k.name, n)
		}
		for i, c := range got {
			if !c.Equal(want) {
				t.Errorf("%s: Join %d: pairs differ from the oracle's", k.name, i)
			}
		}
	}
}
