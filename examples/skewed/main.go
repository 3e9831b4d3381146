// Skewed join: the Fig 9 physics at laptop scale.
//
// Both inputs draw their keys from a Zipf distribution. A single host's
// hash join degrades toward nested-loops behaviour on the hot keys. In a
// cyclo-join ring, each host stations only S_i = 1/N of S, so every hot
// key's hash chain — and with it the per-host join work — shrinks by the
// ring size, while queries on uniform data see no change (Equation ⋆ of
// §V-B).
//
// This example measures exactly that quantity on one machine: the time one
// host spends joining the full rotating relation R against its stationary
// piece S_i, compared with a single host joining R against all of S. On
// the paper's cluster, the per-host time *is* the join-phase wall clock,
// because all hosts work concurrently on their own cores.
//
//	go run ./examples/skewed
package main

import (
	"fmt"
	"log"
	"time"

	"cyclojoin"
)

const ringSize = 6

func main() {
	const tuples = 400_000
	fmt.Printf("per-host join-phase work, local vs %d-host cyclo-join (|R|=|S|=%d)\n\n", ringSize, tuples)
	for _, z := range []float64{0.0, 0.5, 0.7, 0.9} {
		r := generate("R", tuples, z, 1)
		s := generate("S", tuples, z, 2)
		local := hostShare(r, s, 1)
		cyclo := hostShare(r, s, ringSize)
		fmt.Printf("zipf z=%.1f: local %10v   cyclo-join %10v   advantage %.1fx\n",
			z, local.Round(time.Millisecond), cyclo.Round(time.Millisecond),
			float64(local)/float64(cyclo))
	}
	fmt.Println("\nthe advantage grows with skew: hot-key hash chains split across the ring (§V-D);")
	fmt.Println("the small uniform-data gain is this machine's cache footprint, not the chains")
}

func generate(name string, tuples int, z float64, seed int64) *cyclojoin.Relation {
	rel, err := cyclojoin.Generate(cyclojoin.WorkloadSpec{
		Name: name, Tuples: tuples, KeyDomain: tuples * 16, Zipf: z, Seed: seed, PayloadWidth: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	return rel
}

// hostShare builds the hash table over one host's stationary piece (S
// split across `nodes` hosts) and times a full revolution's worth of
// probing: every tuple of R against that table.
func hostShare(r, s *cyclojoin.Relation, nodes int) time.Duration {
	sFrags, err := cyclojoin.Partition(s, nodes)
	if err != nil {
		log.Fatal(err)
	}
	alg := cyclojoin.HashJoin()
	// R is probed as it lies at both table sizes, so what differs between
	// them is the bucket length the paper describes: a hot key's bucket runs
	// past the probe's fixed window and is walked to its end.
	st, err := alg.SetupStationary(sFrags[0].Rel, cyclojoin.EquiJoin(), cyclojoin.JoinOptions{})
	if err != nil {
		log.Fatal(err)
	}
	counter := cyclojoin.NewCounter()
	start := time.Now()
	if err := st.Join(r, counter); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if counter.Count() == 0 {
		log.Fatal("no matches; key domains do not overlap")
	}
	return elapsed
}
