package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cyclojoin/internal/relation"
)

func TestPaperSchemaTupleWidth(t *testing.T) {
	s := PaperSchema("R")
	if s.TupleWidth() != PaperTupleWidth {
		t.Errorf("TupleWidth = %d, want %d", s.TupleWidth(), PaperTupleWidth)
	}
}

func TestGenerateUniform(t *testing.T) {
	r, err := Generate(Spec{Name: "R", Tuples: 10000, KeyDomain: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 10000 {
		t.Fatalf("Len = %d", r.Len())
	}
	m := Multiplicities(r)
	if len(m) != 100 {
		t.Fatalf("distinct keys = %d, want 100", len(m))
	}
	for k, c := range m {
		if k >= 100 {
			t.Errorf("key %d out of domain", k)
		}
		if c < 50 || c > 200 {
			t.Errorf("key %d multiplicity %d far from uniform expectation 100", k, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "R", Tuples: 500, KeyDomain: 64, Zipf: 0.5, Seed: 42, PayloadWidth: 4}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same spec produced different relations")
	}
}

// generateIntn is Generate as it drew payload bytes with rng.Intn(256): the
// reference the cheaper draw must reproduce byte for byte.
func generateIntn(spec Spec) *relation.Relation {
	rng := rand.New(rand.NewSource(spec.Seed))
	rel := relation.New(relation.Schema{Name: spec.Name, PayloadWidth: spec.PayloadWidth}, spec.Tuples)
	draw := keyDrawer(spec, rng, spec.domain())
	pay := make([]byte, spec.PayloadWidth)
	for i := 0; i < spec.Tuples; i++ {
		for j := range pay {
			pay[j] = byte(rng.Intn(256))
		}
		if err := rel.Append(draw(), pay); err != nil {
			panic(err)
		}
	}
	return rel
}

// TestGenerateMatchesIntnBytes: Generate's payload bytes and keys are the
// ones the rng.Intn(256) loop drew, for every payload width and both key
// distributions.
func TestGenerateMatchesIntnBytes(t *testing.T) {
	for _, width := range []int{0, 4, 248} {
		for _, zipf := range []float64{0, 0.8} {
			spec := Spec{Name: "R", Tuples: 3000, PayloadWidth: width, KeyDomain: 1000, Zipf: zipf, Seed: 11}
			got, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(generateIntn(spec)) {
				t.Errorf("width %d, zipf %g: Generate differs from the rng.Intn(256) draw", width, zipf)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{Tuples: -1},
		{Tuples: 1, PayloadWidth: -2},
		{Tuples: 1, Zipf: -0.1},
		{Tuples: 1, KeyDomain: -1},
	}
	for i, spec := range bad {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %d: want error", i)
		}
	}
}

func TestGenerateZeroTuples(t *testing.T) {
	r, err := Generate(Spec{Name: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d, want 0", r.Len())
	}
}

// TestZipfSkewIncreasesHotKeyShare checks the property Fig 9 relies on:
// higher z concentrates multiplicity on the hottest key.
func TestZipfSkewIncreasesHotKeyShare(t *testing.T) {
	hotShare := func(z float64) float64 {
		r, err := Generate(Spec{Name: "R", Tuples: 20000, KeyDomain: 1000, Zipf: z, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		maxC := 0
		for _, c := range Multiplicities(r) {
			if c > maxC {
				maxC = c
			}
		}
		return float64(maxC) / float64(r.Len())
	}
	s0, s5, s9 := hotShare(0.0), hotShare(0.5), hotShare(0.9)
	if !(s0 < s5 && s5 < s9) {
		t.Errorf("hot-key share not monotone in z: z=0 %.4f, z=0.5 %.4f, z=0.9 %.4f", s0, s5, s9)
	}
	if s9 < 0.01 {
		t.Errorf("z=0.9 hot share %.4f unexpectedly small", s9)
	}
}

func TestZipfSamplerBounds(t *testing.T) {
	r, err := Generate(Spec{Name: "R", Tuples: 5000, KeyDomain: 37, Zipf: 0.9, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if r.Key(i) >= 37 {
			t.Fatalf("key %d out of domain 37", r.Key(i))
		}
	}
}

func TestZipfLargeDomainTail(t *testing.T) {
	// Domain beyond maxExact exercises the tail path.
	r, err := Generate(Spec{Name: "R", Tuples: 2000, KeyDomain: maxExact * 2, Zipf: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if r.Key(i) >= uint64(maxExact*2) {
			t.Fatalf("key %d out of domain", r.Key(i))
		}
	}
}

func TestExpectedMatches(t *testing.T) {
	mr := map[uint64]int{1: 2, 2: 1, 3: 4}
	ms := map[uint64]int{1: 3, 3: 2, 9: 5}
	if got, want := ExpectedMatches(mr, ms), 2*3+4*2; got != want {
		t.Errorf("ExpectedMatches = %d, want %d", got, want)
	}
}

func TestSequentialSorted(t *testing.T) {
	r := Sequential("S", 100, 2)
	for i := 1; i < r.Len(); i++ {
		if r.Key(i) < r.Key(i-1) {
			t.Fatal("sequential relation not sorted")
		}
	}
}

func TestZipfHistogramConservesTuples(t *testing.T) {
	f := func(zRaw, dRaw, tRaw uint16) bool {
		z := float64(zRaw%100) / 100.0
		distinct := int(dRaw%500) + 1
		tuples := int(tRaw%5000) + 1
		hist := ZipfHistogram(z, distinct, tuples)
		sum := 0
		for _, m := range hist {
			if m <= 0 {
				return false
			}
			sum += m
		}
		return sum <= tuples && sum >= tuples-distinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestZipfHistogramMonotone(t *testing.T) {
	hist := ZipfHistogram(0.8, 1000, 100000)
	for i := 1; i < len(hist); i++ {
		if hist[i] > hist[i-1] {
			t.Fatalf("histogram not non-increasing at rank %d: %d > %d", i, hist[i], hist[i-1])
		}
	}
}

func TestZipfHistogramUniformWhenZZero(t *testing.T) {
	hist := ZipfHistogram(0, 100, 10000)
	for r, m := range hist {
		if m != 100 {
			t.Errorf("rank %d multiplicity %d, want 100", r, m)
		}
	}
}

func TestStats(t *testing.T) {
	s := Stats([]int{3, 2, 1})
	if s.Tuples != 6 || s.Distinct != 3 || s.MaxMultiplicity != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if want := 9.0 + 4 + 1; math.Abs(s.SelfJoinSize-want) > 1e-9 {
		t.Errorf("SelfJoinSize = %g, want %g", s.SelfJoinSize, want)
	}
}

// TestSelfJoinSizeGrowsWithSkew checks the super-linear growth of join
// output under skew that drives the Fig 9 runtimes.
func TestSelfJoinSizeGrowsWithSkew(t *testing.T) {
	size := func(z float64) float64 {
		return Stats(ZipfHistogram(z, 10000, 1000000)).SelfJoinSize
	}
	if !(size(0.0) < size(0.6) && size(0.6) < size(0.9)) {
		t.Errorf("self-join size not monotone in z: %g %g %g", size(0.0), size(0.6), size(0.9))
	}
}
