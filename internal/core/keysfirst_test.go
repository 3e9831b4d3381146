package core

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/layout"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
)

// recordingAlgorithm wraps a join algorithm and records the payload width of
// every fragment SetupRotating reorganizes: 0 for a key column.
type recordingAlgorithm struct {
	join.Algorithm
	mu     sync.Mutex
	widths []int
}

func (a *recordingAlgorithm) SetupRotating(r *relation.Relation, p join.Predicate, o join.Options) (*relation.Relation, error) {
	a.mu.Lock()
	a.widths = append(a.widths, r.Schema().PayloadWidth)
	a.mu.Unlock()
	return a.Algorithm.SetupRotating(r, p, o)
}

// calls returns how many key columns and how many whole fragments
// SetupRotating has reorganized so far.
func (a *recordingAlgorithm) calls() (keys, tuples int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, w := range a.widths {
		if w == 0 {
			keys++
		} else {
			tuples++
		}
	}
	return keys, tuples
}

// TestCountingOrdersNoTuples: JoinRelations into counters orders each
// rotating fragment's key column and no whole fragment, and places no
// stationary share's payloads; the first revolution that ships tuples orders
// each whole fragment once, adds that to its SetupTime, and later ones reuse
// it, as they reuse each share's placement.
func TestCountingOrdersNoTuples(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(41))
	r := jointest.RandomRelation(rng, "R", 6000, 3000, 4)
	s := jointest.RandomRelation(rng, "S", 5000, 3000, 4)
	alg := &recordingAlgorithm{Algorithm: hashjoin.Join{}}
	// 8 KiB of L2: every fragment here is ordered.
	c := newCluster(t, Config{Nodes: nodes, Algorithm: alg, Predicate: join.Equi{}, Opts: join.Options{L2CacheBytes: 8 << 10}})
	want := referenceFor(t, r, []*relation.Relation{s})
	placements := metrics.Default().Counter("layout_payload_placements_total", "")
	before := placements.Value()

	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches() != want.count {
		t.Fatalf("JoinRelations counts %d matches, want %d", res.Matches(), want.count)
	}
	if keys, tuples := alg.calls(); keys != nodes || tuples != 0 {
		t.Fatalf("JoinRelations into counters reorganized %d key columns and %d whole fragments, want %d and 0", keys, tuples, nodes)
	}
	if n := placements.Value() - before; n != 0 {
		t.Fatalf("JoinRelations into counters placed %d shares' payloads, want none", n)
	}

	rFrags, err := relation.Partition(r, nodes)
	if err != nil {
		t.Fatal(err)
	}
	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	perHost := make([][]*relation.Fragment, nodes)
	for i, f := range rFrags {
		perHost[i] = []*relation.Fragment{f}
	}
	rot, sides := byPosition(t, c, sFrags, perHost)
	materialize := func(int) join.Collector { return join.NewMaterializer("got", 4, 4) }
	for rev := 0; rev < 2; rev++ {
		rows, err := c.Revolve(rot, sides, materialize)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(rowsOf(t, rows), want.rows) {
			t.Errorf("tuple revolution %d: rows differ from join/nested", rev)
		}
		if (rev == 0) != (rows.SetupTime > 0) {
			t.Errorf("tuple revolution %d: SetupTime %v: only the first orders tuples", rev, rows.SetupTime)
		}
	}
	if keys, tuples := alg.calls(); keys != 2*nodes || tuples != nodes {
		t.Errorf("after two tuple revolutions: %d key columns and %d whole fragments reorganized, want %d and %d", keys, tuples, 2*nodes, nodes)
	}
	if n := placements.Value() - before; n != nodes {
		t.Errorf("after two tuple revolutions: %d shares placed their payloads, want %d", n, nodes)
	}
}

// TestTupleRevolutionAfterCounts: on one handle, a tuple revolution after
// count revolutions ships what a handle that ordered whole tuples at setup
// shipped — every fragment as the kernel's SetupRotating leaves it, its key
// column that order's keys — and gets the rows a fresh handle gets, under
// both placements. A handle gone stale is refused before it orders anything.
func TestTupleRevolutionAfterCounts(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(43))
	r := jointest.RandomRelation(rng, "R", 9000, 4000, 5)
	s := jointest.RandomRelation(rng, "S", 7000, 4000, 3)
	want := referenceFor(t, r, []*relation.Relation{s})
	rFrags := homed(t, r, nodes, 2)
	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	opts := join.Options{L2CacheBytes: 16 << 10, Parallelism: 2}
	materialize := func(int) join.Collector { return join.NewMaterializer("got", 5, 3) }
	for _, p := range []Placement{ByPosition, ByKey} {
		alg := &recordingAlgorithm{Algorithm: hashjoin.Join{}}
		c := newCluster(t, Config{Nodes: nodes, Algorithm: alg, Predicate: join.Equi{}, Opts: opts})
		var side *Side
		if p == ByKey {
			side, err = c.SetupSideByKey(s)
		} else {
			side, err = c.SetupSide(sFrags)
		}
		if err != nil {
			t.Fatal(err)
		}
		counted, err := c.SetupRotating(rFrags, p)
		if err != nil {
			t.Fatal(err)
		}
		for rev := 0; rev < 2; rev++ {
			res, err := c.Revolve(counted, []*Side{side}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches() != want.count {
				t.Fatalf("placement %d: count revolution %d: %d matches, want %d", p, rev, res.Matches(), want.count)
			}
		}
		after, err := c.Revolve(counted, []*Side{side}, materialize)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := c.SetupRotating(rFrags, p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := c.Revolve(fresh, []*Side{side}, materialize)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.hosts {
			got, ref := jointest.RowCounts(after.Collectors[i].(*join.Materializer).Result()), jointest.RowCounts(direct.Collectors[i].(*join.Materializer).Result())
			if !maps.Equal(got, ref) {
				t.Errorf("placement %d: host %d: a tuple revolution after counts collects other rows than a fresh handle's", p, i)
			}
		}
		if !maps.Equal(rowsOf(t, after), want.rows) {
			t.Errorf("placement %d: rows differ from join/nested", p)
		}

		// What a handle ordered whole at setup shipped: the kernel's order of
		// each whole fragment, then the order by owner.
		for i, frags := range rFrags {
			for j, f := range frags {
				whole, err := hashjoin.Join{}.SetupRotating(f.Rel, join.Equi{}, c.joinOpts(i))
				if err != nil {
					t.Fatal(err)
				}
				if p == ByKey {
					whole = relation.OrderByOwner(whole, nodes)
				}
				if !counted.rotating[i][j].Rel.Equal(whole) || !slices.Equal(counted.rotatingKeys[i][j].Rel.Keys(), whole.Keys()) {
					t.Errorf("placement %d: host %d's fragment %d is not laid out as SetupRotating of its whole tuples", p, i, j)
				}
			}
		}

		stale, err := c.SetupRotating(rFrags, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Revolve(stale, []*Side{side}, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.ReplaceHost(1); err != nil {
			t.Fatal(err)
		}
		_, before := alg.calls()
		if _, err := c.Revolve(stale, []*Side{side}, materialize); !errors.Is(err, ErrStaleHandle) {
			t.Errorf("placement %d: tuple revolution of a stale handle: err = %v, want %v", p, err, ErrStaleHandle)
		}
		if _, now := alg.calls(); now != before || stale.rotating != nil {
			t.Errorf("placement %d: a stale handle ordered %d whole fragments before it was refused", p, now-before)
		}
	}
}

// TestOrderOrLeave pins the one order-or-leave decision, taken on a
// fragment's whole tuples: a fragment of rotate_wide_tcp's shape (12.5 k
// tuples of 256 B) has its key column ordered although the column alone
// would stay cached, and a fragment whose whole tuples stay cached is left
// as it lies in both forms.
func TestOrderOrLeave(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	wide := jointest.RandomRelation(rng, "wide", 12_500, 1<<20, 248)
	small := jointest.RandomRelation(rng, "small", 2000, 1<<20, 8)
	if !layout.StaysCached(wide.KeysOnly().Bytes(), join.Options{}) || layout.StaysCached(wide.Bytes(), join.Options{}) {
		t.Fatal("fixture drifted: the wide fragment's key column must stay cached, its whole tuples not")
	}
	if !layout.StaysCached(small.Bytes(), join.Options{}) {
		t.Fatal("fixture drifted: the small fragment must stay cached")
	}
	c := newCluster(t, Config{Nodes: 1, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	frags := [][]*relation.Fragment{{{Rel: wide, Index: 0, Of: 2}, {Rel: small, Index: 1, Of: 2}}}
	rot, err := c.SetupRotating(frags, ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := hashjoin.Join{}.SetupRotating(wide, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(ordered.Keys(), wide.Keys()) {
		t.Fatal("fixture drifted: the wide fragment is in hash order already")
	}
	if !slices.Equal(rot.rotatingKeys[0][0].Rel.Keys(), ordered.Keys()) {
		t.Error("the wide fragment's key column was left as it lies: its whole tuples decide")
	}
	if got := rot.rotatingKeys[0][1].Rel.Keys(); len(got) == 0 || &got[0] != &small.Keys()[0] {
		t.Error("the small fragment's key column was copied: it stays cached")
	}
	tuples, _, err := c.tuples(rot)
	if err != nil {
		t.Fatal(err)
	}
	if !tuples[0][0].Rel.Equal(ordered) {
		t.Error("the wide fragment's whole tuples are not in the kernel's order")
	}
	if tuples[0][1].Rel != small {
		t.Error("the small fragment's whole tuples were not left as they lie")
	}
}
