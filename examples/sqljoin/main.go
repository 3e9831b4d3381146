// SQL over the ring: the paper's §VII goal — a SQL-enabled system on top
// of cyclo-join — as a working slice.
//
// A small warehouse (orders, customers, regions) is registered in a
// catalog; SQL join queries then execute as left-deep chains of cyclo-join
// revolutions on a four-host ring, with WHERE filters pushed down to the
// base tables before anything rotates.
//
//	go run ./examples/sqljoin
package main

import (
	"fmt"
	"log"

	"cyclojoin"
)

func main() {
	catalog := cyclojoin.NewCatalog()

	// customers: primary key ids 0..49999, one row each.
	customers := cyclojoin.SequentialRelation("customers", 50_000, 8)
	// orders: 300k rows referencing customer ids, Zipf-skewed (popular
	// customers order more).
	orders, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: "orders", Tuples: 300_000, KeyDomain: 50_000, Zipf: 0.5, Seed: 2, PayloadWidth: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	// loyalty: 12.5k uniformly drawn customer ids (membership rolls).
	loyalty, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: "loyalty", Tuples: 12_500, KeyDomain: 50_000, Seed: 3, PayloadWidth: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, reg := range []struct {
		name, key string
		rel       *cyclojoin.Relation
	}{
		{"customers", "id", customers},
		{"orders", "cust_id", orders},
		{"loyalty", "cust_id", loyalty},
	} {
		if err := catalog.Register(reg.name, reg.key, reg.rel); err != nil {
			log.Fatal(err)
		}
	}

	engine, err := cyclojoin.NewQueryEngine(catalog, 4, cyclojoin.JoinOptions{Parallelism: 2})
	if err != nil {
		log.Fatal(err)
	}
	// All the joins below share the engine's one ring; Close releases it.
	defer func() {
		_ = engine.Close()
	}()

	queries := []string{
		"SELECT COUNT(*) FROM orders",
		"SELECT COUNT(*) FROM orders WHERE orders.cust_id < 1000",
		"SELECT COUNT(*) FROM orders JOIN customers ON orders.cust_id = customers.id",
		"SELECT COUNT(*) FROM orders JOIN customers ON orders.cust_id = customers.id " +
			"WHERE customers.id BETWEEN 0 AND 9999",
		"SELECT COUNT(*) FROM orders JOIN customers ON orders.cust_id = customers.id " +
			"JOIN loyalty ON customers.id = loyalty.cust_id",
	}
	for _, q := range queries {
		res, err := engine.Execute(q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		fmt.Printf("%-130s → %d rows\n", q, res.Count)
	}
}
