// Package jointest provides shared test fixtures for the join algorithm
// packages: a brute-force oracle independent of any production algorithm,
// random relation generators, and an equivalence checker that compares an
// algorithm's output against the oracle as a (rKey, sKey) pair multiset;
// and the checks of package layout's contract that both kernels built on it
// run under their own rules.
package jointest

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
)

// Oracle emits every matching pair of r × s to c with a plain double loop.
// It shares no code with the production algorithms.
func Oracle(r, s *relation.Relation, p join.Predicate, c join.Collector) {
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			if p.Matches(r.Key(i), s.Key(j)) {
				c.Emit(r.Key(i), s.Key(j), r.Payload(i), s.Payload(j))
			}
		}
	}
}

// RandomRelation builds a relation of n tuples with keys drawn from
// [0, domain) and payloadWidth bytes of random payload.
func RandomRelation(rng *rand.Rand, name string, n, domain, payloadWidth int) *relation.Relation {
	rel := relation.New(relation.Schema{Name: name, PayloadWidth: payloadWidth}, n)
	pay := make([]byte, payloadWidth)
	for i := 0; i < n; i++ {
		for j := range pay {
			pay[j] = byte(rng.Intn(256))
		}
		if err := rel.Append(uint64(rng.Intn(domain)), pay); err != nil {
			panic(err)
		}
	}
	return rel
}

// Numbered builds a relation over keys whose payloads carry the row number
// (as far as payloadWidth bytes hold it), so that tuples with equal keys
// stay distinguishable and a setup that loses, repeats or reorders one is
// caught.
func Numbered(keys []uint64, payloadWidth int) *relation.Relation {
	pay := make([]byte, len(keys)*payloadWidth)
	var row [8]byte
	for i := range keys {
		binary.LittleEndian.PutUint64(row[:], uint64(i))
		p := pay[i*payloadWidth : (i+1)*payloadWidth]
		for j := range p {
			p[j] = row[j%8] + byte(j/8)
		}
	}
	rel, err := relation.Wrap(relation.Schema{Name: "R", PayloadWidth: payloadWidth}, keys, pay)
	if err != nil {
		panic(err)
	}
	return rel
}

// RowCounts is a relation as a multiset of (key, payload) rows, for
// comparing materialized join results whose row order is unspecified.
func RowCounts(rel *relation.Relation) map[string]int {
	out := map[string]int{}
	for i := 0; i < rel.Len(); i++ {
		out[fmt.Sprintf("%d|%x", rel.Key(i), rel.Payload(i))]++
	}
	return out
}

// CheckAgainstOracle runs alg end-to-end (SetupRotating + SetupStationary +
// Join) on (r, s, p) and fails the test if the pair multiset differs from
// the oracle's.
func CheckAgainstOracle(t *testing.T, alg join.Algorithm, r, s *relation.Relation, p join.Predicate, opts join.Options) {
	t.Helper()
	want := join.NewPairSet()
	Oracle(r, s, p, want)

	st, err := alg.SetupStationary(s, p, opts)
	if err != nil {
		t.Fatalf("%s: SetupStationary: %v", alg.Name(), err)
	}
	rot, err := alg.SetupRotating(r, p, opts)
	if err != nil {
		t.Fatalf("%s: SetupRotating: %v", alg.Name(), err)
	}
	got := join.NewPairSet()
	if err := st.Join(rot, got); err != nil {
		t.Fatalf("%s: Join: %v", alg.Name(), err)
	}
	if !got.Equal(want) {
		t.Errorf("%s: join output differs from oracle: got %d distinct pairs, want %d (r=%d s=%d pred=%s)",
			alg.Name(), len(got.Pairs()), len(want.Pairs()), r.Len(), s.Len(), p)
	}
}
