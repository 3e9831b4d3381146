// Ternary join: (R ⋈ S) ⋈ T composed from two cyclo-join runs (§IV-A:
// "The ternary join (R ⋈ S) ⋈ T could, for example, be evaluated by using
// two runs of cyclo-join").
//
// This is the two-round composition through the public facade: the first
// run materializes R ⋈ S per host, keyed on S's join key; the per-host
// outputs are already a distributed table, so the second run stations T and
// rotates those outputs without any repartitioning step. It is what a join
// on two different attributes needs. When both joins are on the same key, as
// in every statement the SQL engine accepts, core.Cluster.SetupSideByKey
// places S and T by key hash and one revolution computes the whole join with
// no intermediate (see examples/sqljoin and DESIGN.md §7).
//
//	go run ./examples/ternary
package main

import (
	"fmt"
	"log"

	"cyclojoin"
)

const nodes = 3

func main() {
	// R(a ...), S(a ...), T(a ...): all three share the key domain so
	// both joins have matches. In a real schema the first join would be
	// on R.a = S.a and the second on S.b = T.b; the rekeyed materializer
	// below is what swaps the output key to the S side.
	r := generate("R", 100_000, 1)
	s := generate("S", 100_000, 2)
	tRel := generate("T", 100_000, 3)

	// Run 1: R ⋈ S, materialized per host and keyed on sKey.
	first, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     nodes,
		Algorithm: cyclojoin.HashJoin(),
		Predicate: cyclojoin.EquiJoin(),
		Collectors: func(node int) cyclojoin.Collector {
			return cyclojoin.NewRekeyedMaterializer(fmt.Sprintf("rs-%d", node), 4, 4)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res1, err := first.JoinRelations(r, s, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := first.Close(); err != nil {
		log.Print(err)
	}

	// The distributed intermediate: one fragment per host, exactly where
	// cyclo-join left it.
	interFrags := make([]*cyclojoin.Fragment, nodes)
	totalInter := 0
	for host, c := range res1.Collectors {
		m, ok := c.(*cyclojoin.Materializer)
		if !ok {
			log.Fatalf("host %d: unexpected collector type", host)
		}
		interFrags[host] = &cyclojoin.Fragment{Rel: m.Result(), Index: host, Of: nodes}
		totalInter += m.Result().Len()
	}
	fmt.Printf("run 1: |R ⋈ S| = %d rows, distributed over %d hosts (join %v)\n",
		totalInter, nodes, res1.JoinTime)

	// Run 2: (R ⋈ S) ⋈ T. T is stationed; the intermediate rotates from
	// wherever each piece already lives.
	second, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     nodes,
		Algorithm: cyclojoin.HashJoin(),
		Predicate: cyclojoin.EquiJoin(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := second.Close(); err != nil {
			log.Print(err)
		}
	}()
	tFrags, err := cyclojoin.Partition(tRel, nodes)
	if err != nil {
		log.Fatal(err)
	}
	rotating := make([][]*cyclojoin.Fragment, nodes)
	for i, f := range interFrags {
		rotating[i] = []*cyclojoin.Fragment{f}
	}
	if err := second.Station(tFrags, rotating); err != nil {
		log.Fatal(err)
	}
	res2, err := second.Rotate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 2: |(R ⋈ S) ⋈ T| = %d matches (join %v)\n", res2.Matches(), res2.JoinTime)
}

func generate(name string, tuples int, seed int64) *cyclojoin.Relation {
	rel, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: name, Tuples: tuples, KeyDomain: 50_000, Seed: seed, PayloadWidth: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	return rel
}
