package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/workload"
)

// mergedPairs sums the per-host PairSet collectors into one multiset.
func mergedPairs(t *testing.T, res *Result) map[[2]uint64]int {
	t.Helper()
	out := map[[2]uint64]int{}
	for _, c := range res.Collectors {
		ps, ok := c.(*join.PairSet)
		if !ok {
			t.Fatalf("collector is %T, want *join.PairSet", c)
		}
		for k, v := range ps.Pairs() {
			out[k] += v
		}
	}
	return out
}

func oraclePairs(r, s *relation.Relation, p join.Predicate) map[[2]uint64]int {
	ps := join.NewPairSet()
	jointest.Oracle(r, s, p, ps)
	return ps.Pairs()
}

func pairSetCollectors(i int) join.Collector { return join.NewPairSet() }

func equalPairs(a, b map[[2]uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestDistributedJoinMatchesOracle is the headline correctness property:
// for every algorithm and every ring size, the union of the per-host
// results equals the centralized join (§IV-B).
func TestDistributedJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := jointest.RandomRelation(rng, "R", 600, 80, 4)
	s := jointest.RandomRelation(rng, "S", 500, 80, 4)
	want := oraclePairs(r, s, join.Equi{})

	algs := []join.Algorithm{hashjoin.Join{}, sortmerge.Join{}, nested.Join{}}
	for _, alg := range algs {
		for _, nodes := range []int{1, 2, 3, 6} {
			t.Run(fmt.Sprintf("%s/%dnodes", alg.Name(), nodes), func(t *testing.T) {
				c, err := NewCluster(Config{
					Nodes:      nodes,
					Algorithm:  alg,
					Predicate:  join.Equi{},
					Opts:       join.Options{Parallelism: 2},
					Collectors: pairSetCollectors,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					_ = c.Close()
				}()
				res, err := c.JoinRelations(r, s, false)
				if err != nil {
					t.Fatal(err)
				}
				if got := mergedPairs(t, res); !equalPairs(got, want) {
					t.Errorf("distributed result differs from oracle: %d vs %d distinct pairs", len(got), len(want))
				}
			})
		}
	}
}

func TestCounterMatchesExpectedJoinSize(t *testing.T) {
	rSpec := workload.Spec{Name: "R", Tuples: 2000, KeyDomain: 100, Seed: 1, PayloadWidth: 4}
	sSpec := workload.Spec{Name: "S", Tuples: 1500, KeyDomain: 100, Seed: 2, PayloadWidth: 4}
	r, err := workload.Generate(rSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.Generate(sSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(workload.ExpectedMatches(workload.Multiplicities(r), workload.Multiplicities(s)))

	c, err := NewCluster(Config{Nodes: 4, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Matches(); got != want {
		t.Errorf("Matches() = %d, want %d", got, want)
	}
	if res.SetupTime <= 0 || res.JoinTime <= 0 {
		t.Errorf("phase times not measured: setup=%v join=%v", res.SetupTime, res.JoinTime)
	}
}

// TestSetupReuse: Rotate twice against one Station — both revolutions must
// produce the full result (the §IV-D amortization).
func TestSetupReuse(t *testing.T) {
	r := workload.Sequential("R", 300, 4)
	s := workload.Sequential("S", 300, 4)
	c, err := NewCluster(Config{Nodes: 3, Algorithm: sortmerge.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	sFrags, err := relation.Partition(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	rParts, err := relation.Partition(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	rFrags := make([][]*relation.Fragment, 3)
	for i, f := range rParts {
		rFrags[i] = []*relation.Fragment{f}
	}
	if err := c.Station(sFrags, rFrags); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, err := c.Rotate()
		if err != nil {
			t.Fatalf("rotate %d: %v", round, err)
		}
		if got := res.Matches(); got != 300 {
			t.Errorf("rotate %d: matches = %d, want 300", round, got)
		}
	}
}

// TestRotateIntoPerRevolutionCollectors runs three revolutions of one
// stationed state, each into a different kind of collector: what
// Config.Collectors freezes for a cluster's lifetime, Revolve chooses per
// revolution, and Rotate keeps meaning "the configured ones".
func TestRotateIntoPerRevolutionCollectors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := jointest.RandomRelation(rng, "R", 500, 60, 4)
	s := jointest.RandomRelation(rng, "S", 400, 60, 6)
	ref, err := nested.Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := join.NewMaterializer("want", 4, 6)
	if err := ref.Join(r, want); err != nil {
		t.Fatal(err)
	}

	const nodes = 3
	c, err := NewCluster(Config{
		Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{},
		Collectors: pairSetCollectors,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rParts, err := relation.Partition(r, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rFrags := make([][]*relation.Fragment, nodes)
	for i, f := range rParts {
		rFrags[i] = []*relation.Fragment{f}
	}
	rot, side := byPosition(t, c, sFrags, rFrags)
	counted, err := c.Revolve(rot, side, func(int) join.Collector { return &join.Counter{} })
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.Matches(); got != int64(want.Result().Len()) {
		t.Errorf("Counter revolution: %d matches, nested finds %d", got, want.Result().Len())
	}

	materialized, err := c.Revolve(rot, side, func(int) join.Collector { return join.NewMaterializer("got", 4, 6) })
	if err != nil {
		t.Fatal(err)
	}
	if got := materialized.Matches(); got != -1 {
		t.Errorf("Matches() over Materializers = %d, want -1", got)
	}
	got := map[string]int{}
	for _, col := range materialized.Collectors {
		for row, n := range jointest.RowCounts(col.(*join.Materializer).Result()) {
			got[row] += n
		}
	}
	if wantRows := jointest.RowCounts(want.Result()); !maps.Equal(got, wantRows) {
		t.Errorf("Materializer revolution: %d distinct rows, nested finds %d", len(got), len(wantRows))
	}

	if err := c.Station(sFrags, rFrags); err != nil {
		t.Fatal(err)
	}
	configured, err := c.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedPairs(t, configured); !equalPairs(got, oraclePairs(r, s, join.Equi{})) {
		t.Error("Rotate() did not collect into Config.Collectors' PairSets")
	}
}

func TestSkipRotatingSetupSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	r := jointest.RandomRelation(rng, "R", 400, 50, 4)
	s := jointest.RandomRelation(rng, "S", 400, 50, 4)
	for _, k := range []struct {
		alg  join.Algorithm
		pred join.Predicate
	}{{hashjoin.Join{}, join.Equi{}}, {sortmerge.Join{}, join.Band{Width: 2}}} {
		want := oraclePairs(r, s, k.pred)
		for _, skip := range []bool{false, true} {
			c, err := NewCluster(Config{
				Nodes:             3,
				Algorithm:         k.alg,
				Predicate:         k.pred,
				Collectors:        pairSetCollectors,
				SkipRotatingSetup: skip,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.JoinRelations(r, s, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := mergedPairs(t, res); !equalPairs(got, want) {
				t.Errorf("%s, skip=%v: wrong result", k.alg.Name(), skip)
			}
			_ = c.Close()
		}
	}
}

// TestRotateSmaller: with role swapping, the pair orientation flips but the
// join content is the same.
func TestRotateSmaller(t *testing.T) {
	big := workload.Sequential("BIG", 1000, 4)
	small := workload.Sequential("SMALL", 100, 4)
	c, err := NewCluster(Config{Nodes: 2, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	// R=big, S=small, rotateSmaller=true → small rotates, big stays.
	res, err := c.JoinRelations(big, small, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Matches(); got != 100 {
		t.Errorf("matches = %d, want 100", got)
	}
}

func TestBandJoinOnRing(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r := jointest.RandomRelation(rng, "R", 300, 100, 4)
	s := jointest.RandomRelation(rng, "S", 300, 100, 4)
	p := join.Band{Width: 2}
	want := oraclePairs(r, s, p)
	c, err := NewCluster(Config{
		Nodes:      3,
		Algorithm:  sortmerge.Join{},
		Predicate:  p,
		Collectors: pairSetCollectors,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedPairs(t, res); !equalPairs(got, want) {
		t.Error("distributed band join differs from oracle")
	}
}

func TestThetaJoinOnRing(t *testing.T) {
	p := join.Theta{Name: "mod3", Fn: func(r, s uint64) bool { return r%3 == s%3 }}
	rng := rand.New(rand.NewSource(34))
	r := jointest.RandomRelation(rng, "R", 120, 40, 4)
	s := jointest.RandomRelation(rng, "S", 100, 40, 4)
	want := oraclePairs(r, s, p)
	c, err := NewCluster(Config{
		Nodes:      2,
		Algorithm:  nested.Join{},
		Predicate:  p,
		Collectors: pairSetCollectors,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedPairs(t, res); !equalPairs(got, want) {
		t.Error("distributed theta join differs from oracle")
	}
}

func TestTCPLinksCluster(t *testing.T) {
	r := workload.Sequential("R", 200, 4)
	s := workload.Sequential("S", 200, 4)
	c, err := NewCluster(Config{
		Nodes:     3,
		Algorithm: hashjoin.Join{},
		Predicate: join.Equi{},
		Links:     ring.TCPLinks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Matches(); got != 200 {
		t.Errorf("matches = %d, want 200", got)
	}
}

func TestReplaceHostThenRejoin(t *testing.T) {
	r := workload.Sequential("R", 150, 4)
	s := workload.Sequential("S", 150, 4)
	c, err := NewCluster(Config{Nodes: 3, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.JoinRelations(r, s, false); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceHost(1); err != nil {
		t.Fatal(err)
	}
	// Rotation without re-stationing must be rejected: the new host has
	// no S_i.
	if _, err := c.Rotate(); err == nil {
		t.Error("Rotate after ReplaceHost without Station: want error")
	}
	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Matches(); got != 150 {
		t.Errorf("matches after replacement = %d, want 150", got)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Nodes: 2, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}}
	tests := []struct {
		name string
		mut  func(Config) Config
	}{
		{"zero nodes", func(c Config) Config { c.Nodes = 0; return c }},
		{"nil algorithm", func(c Config) Config { c.Algorithm = nil; return c }},
		{"nil predicate", func(c Config) Config { c.Predicate = nil; return c }},
		{"unsupported predicate", func(c Config) Config { c.Predicate = join.Band{Width: 1}; return c }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCluster(tt.mut(base)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestUnsupportedPredicateErrorIsTyped(t *testing.T) {
	_, err := NewCluster(Config{Nodes: 1, Algorithm: hashjoin.Join{}, Predicate: join.Band{Width: 1}})
	if !errors.Is(err, join.ErrUnsupportedPredicate) {
		t.Errorf("error chain = %v, want ErrUnsupportedPredicate", err)
	}
}

func TestRotateBeforeStation(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	if _, err := c.Rotate(); err == nil {
		t.Error("want error")
	}
}

func TestStationValidation(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	if err := c.Station(nil, nil); err == nil {
		t.Error("want error for wrong slot counts")
	}
}

// TestSyncTimeObservable: with a deliberately starved transport (tiny
// buffers forcing many small fragments) the ring's wait-time counters are
// populated — the quantity Fig 11 charts.
func TestWaitTimeCounters(t *testing.T) {
	r := workload.Sequential("R", 5000, 4)
	s := workload.Sequential("S", 5000, 4)
	c, err := NewCluster(Config{
		Nodes:     3,
		Algorithm: hashjoin.Join{},
		Predicate: join.Equi{},
		Ring:      ring.Config{BufferSlots: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range res.Nodes {
		if ns.Processed == 0 {
			t.Errorf("node %d processed nothing", i)
		}
	}
}
