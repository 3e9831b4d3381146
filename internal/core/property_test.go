package core

import (
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
