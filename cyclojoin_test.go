package cyclojoin_test

import (
	"testing"

	"cyclojoin"
)

// TestQuickstart runs the README's quickstart path end-to-end through the
// public facade.
func TestQuickstart(t *testing.T) {
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     3,
		Algorithm: cyclojoin.HashJoin(),
		Predicate: cyclojoin.EquiJoin(),
		Opts:      cyclojoin.JoinOptions{Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cluster.Close()
	}()
	r, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{Name: "R", Tuples: 10_000, KeyDomain: 1_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{Name: "S", Tuples: 10_000, KeyDomain: 1_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches() <= 0 {
		t.Error("no matches on overlapping key domains")
	}
	if res.SetupTime <= 0 || res.JoinTime <= 0 {
		t.Error("phase times not populated")
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	if cyclojoin.HashJoin().Name() != "hash" {
		t.Error("HashJoin wrong")
	}
	if cyclojoin.SortMergeJoin().Name() != "sortmerge" {
		t.Error("SortMergeJoin wrong")
	}
	if cyclojoin.NestedLoopsJoin().Name() != "nested" {
		t.Error("NestedLoopsJoin wrong")
	}
	if !cyclojoin.SortMergeJoin().Supports(cyclojoin.BandJoin(5)) {
		t.Error("sort-merge must support band joins")
	}
	theta := cyclojoin.ThetaJoin("lt", func(r, s uint64) bool { return r < s })
	if !cyclojoin.NestedLoopsJoin().Supports(theta) {
		t.Error("nested loops must support theta joins")
	}
}

func TestFacadeTCPLinks(t *testing.T) {
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     2,
		Algorithm: cyclojoin.SortMergeJoin(),
		Predicate: cyclojoin.BandJoin(1),
		Links:     cyclojoin.TCPLoopbackLinks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cluster.Close()
	}()
	r, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{Name: "R", Tuples: 500, KeyDomain: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{Name: "S", Tuples: 500, KeyDomain: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches() <= 0 {
		t.Error("band join over TCP produced no matches")
	}
}
