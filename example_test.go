package cyclojoin_test

import (
	"fmt"
	"log"

	"cyclojoin"
)

// ExampleNewCluster runs the smallest possible distributed equi-join: S is
// stationed across three hosts, R rotates once, the per-host counters sum
// to the join size.
func ExampleNewCluster() {
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     3,
		Algorithm: cyclojoin.HashJoin(),
		Predicate: cyclojoin.EquiJoin(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		_ = cluster.Close()
	}()

	r := cyclojoin.SequentialRelation("R", 1000, 4)
	s := cyclojoin.SequentialRelation("S", 1000, 4)
	res, err := cluster.JoinRelations(r, s, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:", res.Matches())
	// Output: matches: 1000
}

// ExampleCluster_Rotate demonstrates setup reuse (§IV-D): one Station, two
// revolutions, full result both times.
func ExampleCluster_Rotate() {
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     2,
		Algorithm: cyclojoin.SortMergeJoin(),
		Predicate: cyclojoin.EquiJoin(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		_ = cluster.Close()
	}()

	r := cyclojoin.SequentialRelation("R", 500, 4)
	s := cyclojoin.SequentialRelation("S", 500, 4)
	first, err := cluster.JoinRelations(r, s, false)
	if err != nil {
		log.Fatal(err)
	}
	second, err := cluster.Rotate() // reuses the sorted runs
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(first.Matches(), second.Matches())
	// Output: 500 500
}

// ExampleBandJoin joins keys within a distance of 1 using sort-merge.
func ExampleBandJoin() {
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     2,
		Algorithm: cyclojoin.SortMergeJoin(),
		Predicate: cyclojoin.BandJoin(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		_ = cluster.Close()
	}()

	// Keys 0..9 on both sides: each r matches r-1, r, r+1 where present:
	// 10 exact + 9 above + 9 below = 28 pairs.
	r := cyclojoin.SequentialRelation("R", 10, 0)
	s := cyclojoin.SequentialRelation("S", 10, 0)
	res, err := cluster.JoinRelations(r, s, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("band matches:", res.Matches())
	// Output: band matches: 28
}

// ExampleNewQueryEngine runs SQL over the ring.
func ExampleNewQueryEngine() {
	catalog := cyclojoin.NewCatalog()
	if err := catalog.Register("users", "id", cyclojoin.SequentialRelation("users", 100, 4)); err != nil {
		log.Fatal(err)
	}
	if err := catalog.Register("events", "user_id", cyclojoin.SequentialRelation("events", 60, 4)); err != nil {
		log.Fatal(err)
	}
	engine, err := cyclojoin.NewQueryEngine(catalog, 2, cyclojoin.JoinOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		_ = engine.Close()
	}()
	res, err := engine.Execute(
		"SELECT COUNT(*) FROM events JOIN users ON events.user_id = users.id WHERE users.id < 50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", res.Count)
	// Output: rows: 50
}

// ExamplePartition splits a relation into per-host fragments.
func ExamplePartition() {
	r := cyclojoin.SequentialRelation("R", 10, 0)
	frags, err := cyclojoin.Partition(r, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range frags {
		fmt.Printf("fragment %d/%d: %d tuples\n", f.Index, f.Of, f.Rel.Len())
	}
	// Output:
	// fragment 0/3: 3 tuples
	// fragment 1/3: 3 tuples
	// fragment 2/3: 4 tuples
}
