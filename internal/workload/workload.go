// Package workload generates the synthetic join inputs used in the paper's
// evaluation (§V).
//
// The paper populates join keys with uniformly distributed integers for the
// scale experiments (Fig 7, 8, 10-12) and with Zipf-distributed keys of
// varying Zipf factor z for the skew experiment (Fig 9). Tuples are 12 bytes
// (a 4-byte key plus payload); we keep the 12-byte tuple volume by using a
// 8-byte stored key and a 4-byte payload so that "data volume" figures line
// up with the paper's GB axis labels.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"cyclojoin/internal/relation"
)

// PaperTupleWidth is the serialized tuple width used in all of the paper's
// experiments (12 bytes per tuple).
const PaperTupleWidth = 12

// PaperSchema returns a schema with the paper's 12-byte tuples.
func PaperSchema(name string) relation.Schema {
	return relation.Schema{Name: name, PayloadWidth: PaperTupleWidth - relation.KeyWidth}
}

// Spec describes a relation to generate.
type Spec struct {
	// Name is the schema name of the generated relation.
	Name string
	// Tuples is the number of tuples to generate.
	Tuples int
	// PayloadWidth is the per-tuple payload width; use PaperSchema for the
	// paper's layout.
	PayloadWidth int
	// KeyDomain is the number of distinct key values, [0, KeyDomain).
	// Zero means KeyDomain == Tuples.
	KeyDomain int
	// Zipf is the Zipf skew factor z. Zero generates uniform keys; the
	// paper sweeps z from 0 to 0.9 in Fig 9.
	Zipf float64
	// Seed seeds the deterministic generator.
	Seed int64
}

func (s Spec) domain() int {
	if s.KeyDomain > 0 {
		return s.KeyDomain
	}
	if s.Tuples > 0 {
		return s.Tuples
	}
	return 1
}

// Validate reports whether the spec is generatable.
func (s Spec) Validate() error {
	switch {
	case s.Tuples < 0:
		return fmt.Errorf("workload: %q: negative tuple count %d", s.Name, s.Tuples)
	case s.PayloadWidth < 0:
		return fmt.Errorf("workload: %q: negative payload width %d", s.Name, s.PayloadWidth)
	case s.Zipf < 0:
		return fmt.Errorf("workload: %q: negative zipf factor %g", s.Name, s.Zipf)
	case s.KeyDomain < 0:
		return fmt.Errorf("workload: %q: negative key domain %d", s.Name, s.KeyDomain)
	}
	return nil
}

// Generate materializes the relation described by the spec.
//
// Uniform keys are drawn i.i.d. from [0, KeyDomain). Zipf keys are drawn
// from rank distribution P(rank r) ∝ 1/r^z, with ranks mapped to key values
// by a pseudo-random permutation so that hot keys are not clustered at the
// low end of the domain (which would make radix partitioning look
// artificially bad or good).
func Generate(spec Spec) (*relation.Relation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	rel := relation.New(relation.Schema{Name: spec.Name, PayloadWidth: spec.PayloadWidth}, spec.Tuples)
	domain := spec.domain()
	draw := keyDrawer(spec, rng, domain)
	pay := make([]byte, spec.PayloadWidth)
	for i := 0; i < spec.Tuples; i++ {
		for j := range pay {
			// rng.Intn(256)'s byte, four calls shallower: Intn(256) is
			// Int31() & 255, and Int31 is Int63() >> 32.
			pay[j] = byte(rng.Int63() >> 32)
		}
		if err := rel.Append(draw(), pay); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func keyDrawer(spec Spec, rng *rand.Rand, domain int) func() uint64 {
	if spec.Zipf == 0 {
		return func() uint64 { return uint64(rng.Intn(domain)) }
	}
	// rand.Zipf requires s > 1; the paper sweeps z in (0, 1), so we use our
	// own bounded-rank sampler that supports any z ≥ 0.
	z := NewZipf(rng, spec.Zipf, domain)
	perm := permuter(uint64(domain))
	return func() uint64 { return perm(z.Draw()) }
}

// permuter returns a cheap bijective map on [0, n) used to scatter Zipf
// ranks across the key domain.
func permuter(n uint64) func(uint64) uint64 {
	if n <= 1 {
		return func(r uint64) uint64 { return 0 }
	}
	return func(r uint64) uint64 {
		return (r*2654435761 + 12345) % n
	}
}

// Zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^z for any z ≥ 0 (the
// standard library's rand.Zipf only supports exponents > 1). It uses the
// classic rejection-free inverse-CDF method over a precomputed cumulative
// table for small domains and a two-level table for large ones.
type Zipf struct {
	rng *rand.Rand
	cdf []float64 // cumulative probability by rank, exact for len ≤ maxExact
	n   int
	z   float64
}

// maxExact bounds the size of the exact CDF table; domains larger than this
// use the table for the head and a Pareto-tail approximation for the rest.
const maxExact = 1 << 20

// NewZipf builds a sampler for ranks [0, n) with exponent z.
func NewZipf(rng *rand.Rand, z float64, n int) *Zipf {
	if n < 1 {
		n = 1
	}
	m := n
	if m > maxExact {
		m = maxExact
	}
	cdf := make([]float64, m)
	sum := 0.0
	for r := 0; r < m; r++ {
		sum += math.Pow(float64(r+1), -z)
		cdf[r] = sum
	}
	// Tail mass beyond the exact table, approximated by the integral of
	// x^-z from m to n (exact enough for sampling purposes).
	tail := 0.0
	if n > m {
		if z == 1 {
			tail = math.Log(float64(n) / float64(m))
		} else {
			tail = (math.Pow(float64(n), 1-z) - math.Pow(float64(m), 1-z)) / (1 - z)
		}
	}
	total := sum + tail
	for r := range cdf {
		cdf[r] /= total
	}
	return &Zipf{rng: rng, cdf: cdf, n: n, z: z}
}

// Draw samples one rank.
func (zf *Zipf) Draw() uint64 {
	u := zf.rng.Float64()
	m := len(zf.cdf)
	if u <= zf.cdf[m-1] {
		// Binary search the exact table.
		lo, hi := 0, m-1
		for lo < hi {
			mid := (lo + hi) / 2
			if zf.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return uint64(lo)
	}
	// Tail: ranks in [m, n), approximately uniform within the tail
	// because the density is nearly flat out there for z < 1.
	return uint64(m) + uint64(zf.rng.Int63n(int64(zf.n-m)))
}

// Multiplicities returns, for each distinct key in r, the number of times it
// occurs. The skew analysis for Fig 9 is driven by this histogram.
func Multiplicities(r *relation.Relation) map[uint64]int {
	m := make(map[uint64]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		m[r.Key(i)]++
	}
	return m
}

// ExpectedMatches computes |R ⋈ S| for an equi-join from the two key
// histograms — the ground truth the join tests compare against.
func ExpectedMatches(mr, ms map[uint64]int) int {
	total := 0
	for k, cr := range mr {
		if cs, ok := ms[k]; ok {
			total += cr * cs
		}
	}
	return total
}

// Sequential generates keys 0..n-1 in order (sorted input, the best case for
// sort-merge setup and a useful test fixture).
func Sequential(name string, tuples, payloadWidth int) *relation.Relation {
	rel := relation.New(relation.Schema{Name: name, PayloadWidth: payloadWidth}, tuples)
	pay := make([]byte, payloadWidth)
	for i := 0; i < tuples; i++ {
		if err := rel.Append(uint64(i), pay); err != nil {
			// Append only fails on width mismatch, which cannot happen here.
			panic(err)
		}
	}
	return rel
}
