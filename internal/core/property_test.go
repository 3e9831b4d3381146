package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// TestDistributedJoinProperty drives random ring sizes, cardinalities, key
// domains and payload widths through the full stack and
// compares against the oracle — the repository's broadest property test.
// Each case runs a whole-tuple revolution (PairSets) and then a key-only one
// (Counters) on the same stationed state.
func TestDistributedJoinProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	widths := [...]int{0, 4, 13, 248}
	f := func(seed int64, nodesRaw, rRaw, sRaw, domRaw uint16, rWidth, sWidth uint8) bool {
		nodes := int(nodesRaw%5) + 1
		rN := int(rRaw % 800)
		sN := int(sRaw % 800)
		domain := int(domRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		r := jointest.RandomRelation(rng, "R", rN, domain, widths[int(rWidth)%len(widths)])
		s := jointest.RandomRelation(rng, "S", sN, domain, widths[int(sWidth)%len(widths)])

		c, err := NewCluster(Config{
			Nodes:     nodes,
			Algorithm: hashjoin.Join{},
			Predicate: join.Equi{},
		})
		if err != nil {
			return false
		}
		defer func() {
			_ = c.Close()
		}()
		sFrags, err := relation.Partition(s, nodes)
		if err != nil {
			return false
		}
		rParts, err := relation.Partition(r, nodes)
		if err != nil {
			return false
		}
		rFrags := make([][]*relation.Fragment, nodes)
		for i, f := range rParts {
			rFrags[i] = []*relation.Fragment{f}
		}
		rot, side := byPosition(t, c, sFrags, rFrags)
		res, err := c.Revolve(rot, side, pairSetCollectors)
		if err != nil {
			return false
		}
		want := join.NewPairSet()
		jointest.Oracle(r, s, join.Equi{}, want)
		got := map[[2]uint64]int{}
		for _, col := range res.Collectors {
			for k, v := range col.(*join.PairSet).Pairs() {
				got[k] += v
			}
		}
		wantPairs := want.Pairs()
		if len(got) != len(wantPairs) {
			return false
		}
		var matches int64
		for k, v := range wantPairs {
			if got[k] != v {
				return false
			}
			matches += int64(v)
		}
		counted, err := c.Revolve(rot, side, nil)
		return err == nil && counted.Matches() == matches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMatchCountInvariantAcrossRingSizes: the total match count must be
// identical for every ring size — the fragment layout
// is an implementation detail.
func TestMatchCountInvariantAcrossRingSizes(t *testing.T) {
	r, err := workload.Generate(workload.Spec{Name: "R", Tuples: 3000, KeyDomain: 500, Seed: 51, PayloadWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.Generate(workload.Spec{Name: "S", Tuples: 2500, KeyDomain: 500, Seed: 52, PayloadWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(workload.ExpectedMatches(workload.Multiplicities(r), workload.Multiplicities(s)))
	for _, nodes := range []int{1, 2, 3, 4, 5, 6} {
		c, err := NewCluster(Config{
			Nodes:     nodes,
			Algorithm: hashjoin.Join{},
			Predicate: join.Equi{},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.JoinRelations(r, s, false)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if got := res.Matches(); got != want {
			t.Errorf("nodes=%d: matches = %d, want %d", nodes, got, want)
		}
		_ = c.Close()
	}
}

// TestUnevenFragmentDistribution: cyclo-join must tolerate arbitrary
// initial placement of the rotating fragments (§IV-A: "we do not care how
// the data is distributed").
func TestUnevenFragmentDistribution(t *testing.T) {
	const nodes = 3
	c, err := NewCluster(Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	r := workload.Sequential("R", 900, 4)
	s := workload.Sequential("S", 900, 4)
	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// All rotating fragments start at host 0.
	rParts, err := relation.Partition(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	rFrags := make([][]*relation.Fragment, nodes)
	rFrags[0] = rParts
	rot, side := byPosition(t, c, sFrags, rFrags)
	res, err := c.Revolve(rot, side, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Matches(); got != 900 {
		t.Errorf("matches = %d, want 900", got)
	}
}

// TestCountChainProperty: for random chains of two to four key-placed sides,
// each Zipf-skewed or a single key repeated (one that R holds, so every row
// of R with it meets the whole side), on random ring sizes at one and four
// probe workers, a counting revolution — a count chain, which multiplies
// per-key counts — a revolution into PairSets, which hands whole matches
// down a chain of links, and join/nested agree key by key.
func TestCountChainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gen := func(name string, tuples, domain int) *relation.Relation {
		rel, err := workload.Generate(workload.Spec{Name: name, Tuples: tuples, KeyDomain: domain, Zipf: 0.9, Seed: rng.Int63(), PayloadWidth: rng.Intn(6)})
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	for i := 0; i < 12; i++ {
		domain := 20 + rng.Intn(80)
		r := gen("R", 50+rng.Intn(250), domain)
		sides := make([]*relation.Relation, 2+rng.Intn(3))
		for j := range sides {
			if rng.Intn(3) == 0 {
				sides[j] = jointest.Numbered(repeated(r.Key(rng.Intn(r.Len())), 1+rng.Intn(12)), rng.Intn(4))
			} else {
				sides[j] = gen("S", 10+rng.Intn(80), domain)
			}
		}
		want := map[uint64]int64{}
		ref := nestedChain(t, r, sides)
		for row := 0; row < ref.Len(); row++ {
			want[ref.Key(row)]++
		}
		nodes := 1 + rng.Intn(4)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("case %d: %d sides, %d nodes, %d workers", i, len(sides), nodes, workers)
			c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}, Opts: join.Options{Parallelism: workers}})
			rot, set := keyHandles(t, c, sides, homed(t, r, nodes, 1))
			counted, err := c.Revolve(rot, set, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := counted.Matches(); got != int64(ref.Len()) {
				t.Errorf("%s: the count chain counts %d matches, join/nested finds %d", name, got, ref.Len())
			}
			paired, err := c.Revolve(rot, set, pairSetCollectors)
			if err != nil {
				t.Fatal(err)
			}
			got := map[uint64]int64{}
			for _, col := range paired.Collectors {
				for p, n := range col.(*join.PairSet).Pairs() {
					got[p[0]] += int64(n)
				}
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s: PairSets hold other per-key match counts than join/nested (%d keys, want %d)", name, len(got), len(want))
			}
		}
	}
}

// repeated is n copies of k.
func repeated(k uint64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = k
	}
	return keys
}
