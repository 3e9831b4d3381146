package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// reusedSetupBytes reads layout_setup_bytes_total{source="reused"}.
var reusedSetupBytes = metrics.Default().Counter("layout_setup_bytes_total", "", "source", "reused")

// generated is a workload relation of n tuples with 4-byte payloads.
func generated(t *testing.T, name string, n int, seed int64) *relation.Relation {
	t.Helper()
	rel, err := workload.Generate(workload.Spec{Name: name, Tuples: n, PayloadWidth: 4, KeyDomain: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// equiCount is the size of the equi-join of rs[0] and rs[1].
func equiCount(rs [2]*relation.Relation) int64 {
	seen := make(map[uint64]int64)
	for _, k := range rs[1].Keys() {
		seen[k]++
	}
	var n int64
	for _, k := range rs[0].Keys() {
		n += seen[k]
	}
	return n
}

// TestJoinRelationsReusesSetupMemory: once a cluster has replaced its staged
// handles, a JoinRelations orders into their memory. The cheapest of several
// calls after the first allocates at most 2 % of the key columns it orders.
// TotalAlloc is process-wide, so the cheapest call is the one read, as in
// jointest.CheckSetupAllocations.
func TestJoinRelationsReusesSetupMemory(t *testing.T) {
	const nodes, tuples = 4, 200_000
	r, s := generated(t, "R", tuples, 1), generated(t, "S", tuples, 2)
	cfg := Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}}
	cfg.Ring.BufferBytes = 512 << 10 // a 50 000-key fragment is 400 KB
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	want := int64(-1)
	cheapest := uint64(math.MaxUint64)
	reused := reusedSetupBytes.Value()
	var before, after runtime.MemStats
	for call := 0; call < 8; call++ {
		runtime.ReadMemStats(&before)
		res, err := c.JoinRelations(r, s, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = res.Matches()
		} else if got := res.Matches(); got != want {
			t.Fatalf("call %d: %d matches, want %d", call, got, want)
		}
		if call > 0 {
			cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if raceDetector {
		return
	}
	columns := uint64(8 * (r.Len() + s.Len()))
	if limit := columns / 50; cheapest > limit {
		t.Errorf("cheapest JoinRelations after the first allocated %d B, want ≤ %d B (2 %% of the %d B of key columns it orders)", cheapest, limit, columns)
	}
	if got := reusedSetupBytes.Value() - reused; got < int64(columns) {
		t.Errorf("setup reused %d B over 8 calls, want at least the %d B of one call's key columns", got, columns)
	}
}

// TestCallerColumnsNeverEnterThePool: both ways a caller's columns reach a
// rotating fragment unordered — the ablation that skips the rotating setup
// and the nested kernel that reorganizes nothing — leave them out of the
// pool. JoinRelations, Rotate, ReplaceHost
// and released handles interleave with joins of other data that order into
// whatever the pool holds, and the inputs stay byte for byte as they were.
func TestCallerColumnsNeverEnterThePool(t *testing.T) {
	big := [2]*relation.Relation{generated(t, "R", 60_000, 3), generated(t, "S", 60_000, 4)}
	for _, tc := range []struct {
		name string
		alg  join.Algorithm
		skip bool
		// tuples sizes the caller's relations.
		tuples int
	}{
		{"hash/skip", hashjoin.Join{}, true, 6_000},
		{"nested", nested.Join{}, false, 2_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s := generated(t, "R", tc.tuples, 5), generated(t, "S", tc.tuples, 6)
			rIn, sIn := r.Clone(), s.Clone()
			var want join.Counter
			jointest.Oracle(r, s, join.Equi{}, &want)
			c := newCluster(t, Config{Nodes: 3, Algorithm: tc.alg, Predicate: join.Equi{}, SkipRotatingSetup: tc.skip})
			other := newCluster(t, Config{Nodes: 3, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
			check := func(step string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if got := res.Matches(); got != want.Count() {
					t.Fatalf("%s: %d matches, want %d", step, got, want.Count())
				}
			}
			churn := func() {
				t.Helper()
				// Orders into what the pool holds, twice so that the first
				// call's handles are released and taken again.
				for i := 0; i < 2; i++ {
					if _, err := other.JoinRelations(big[0], big[1], false); err != nil {
						t.Fatal(err)
					}
				}
			}
			res, err := c.JoinRelations(r, s, false)
			check("JoinRelations", res, err)
			churn()
			res, err = c.Rotate()
			check("Rotate", res, err)
			res, err = c.JoinRelations(r, s, false)
			check("JoinRelations again", res, err)
			churn()
			if err := c.ReplaceHost(1); err != nil {
				t.Fatal(err)
			}
			churn()
			res, err = c.JoinRelations(r, s, false)
			check("JoinRelations after ReplaceHost", res, err)
			{
				rot, err := c.SetupRotating(homed(t, r, 3, 2), ByKey)
				if err != nil {
					t.Fatal(err)
				}
				side, err := c.SetupSideByKey(s)
				if err != nil {
					t.Fatal(err)
				}
				res, err = c.Revolve(rot, []*Side{side}, nil)
				check("Revolve by key", res, err)
				rot.Release()
				side.Release()
			}
			churn()
			if !r.Equal(rIn) || !s.Equal(sIn) {
				t.Fatal("a caller's relation changed: its columns entered the pool")
			}
		})
	}
}

// TestStationWhileRotating: a Station that replaces the staged handles while
// a Rotate revolves them leaves them to that Rotate, which releases them when
// it ends, so every revolution counts what it stationed. Run it under -race.
func TestStationWhileRotating(t *testing.T) {
	const nodes = 3
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	// Two data sets with different counts; fragments large enough to be
	// ordered, so their handles hold pooled memory.
	sets := [2][2]*relation.Relation{
		{generated(t, "R", 24_000, 7), generated(t, "S", 24_000, 8)},
		{generated(t, "R", 24_000, 9), jointest.Numbered(make([]uint64, 24_000), 4)},
	}
	counts := [2]int64{equiCount(sets[0]), equiCount(sets[1])}
	if counts[0] == counts[1] {
		t.Fatalf("both data sets count %d matches: a mix-up would not show", counts[0])
	}
	station := func(i int) error {
		sFrags, err := relation.Partition(sets[i][1], nodes)
		if err != nil {
			return err
		}
		return c.Station(sFrags, homed(t, sets[i][0], nodes, 1))
	}
	if err := station(0); err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(1)
	stationErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			if err := station(i % 2); err != nil {
				stationErr <- err
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		res, err := c.Rotate()
		if err != nil {
			t.Fatalf("rotate %d: %v", i, err)
		}
		if got := res.Matches(); got != counts[0] && got != counts[1] {
			t.Fatalf("rotate %d: %d matches, want %d or %d", i, got, counts[0], counts[1])
		}
	}
	wg.Wait()
	select {
	case err := <-stationErr:
		t.Fatal(err)
	default:
	}
	res, err := c.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Matches(), counts[rounds%2]; got != want {
		t.Fatalf("after the last Station: %d matches, want %d", got, want)
	}
}

// TestReleaseTwiceHandsBackOnce: a second Release of a handle hands nothing
// back, so no two handles set up later share memory.
func TestReleaseTwiceHandsBackOnce(t *testing.T) {
	const nodes = 2
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	setup := func(r, s *relation.Relation) (*Rotating, *Side) {
		t.Helper()
		rot, err := c.SetupRotating(homed(t, r, nodes, 1), ByPosition)
		if err != nil {
			t.Fatal(err)
		}
		sFrags, err := relation.Partition(s, nodes)
		if err != nil {
			t.Fatal(err)
		}
		side, err := c.SetupSide(sFrags)
		if err != nil {
			t.Fatal(err)
		}
		return rot, side
	}
	rot, side := setup(generated(t, "R", 30_000, 10), generated(t, "S", 30_000, 11))
	for i := 0; i < 2; i++ {
		rot.Release()
		side.Release()
	}
	sets := [2][2]*relation.Relation{
		{generated(t, "R", 30_000, 12), generated(t, "S", 30_000, 13)},
		{generated(t, "R", 30_000, 14), jointest.Numbered(make([]uint64, 30_000), 4)},
	}
	var rots [2]*Rotating
	var sides [2]*Side
	for i, set := range sets {
		rots[i], sides[i] = setup(set[0], set[1])
	}
	for i, set := range sets {
		res, err := c.Revolve(rots[i], []*Side{sides[i]}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Matches(), equiCount(set); got != want {
			t.Errorf("set %d: %d matches, want %d", i, got, want)
		}
	}
}
