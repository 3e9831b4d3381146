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
	c := newCluster(t, Config{Nodes: nodes, Algorithm: alg, Predicate: join.Equi{}})
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
	opts := join.Options{Parallelism: 2}
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

// TestOrderOrLeave: a rotating fragment is ordered in both forms, its key
// column at setup and its whole tuples on the first tuple revolution, at
// every size — rotate_wide_tcp's 12.5 k tuples of 256 B and 2 000 tuples
// that would fit any cache alike — and left as it lies in both forms only
// under SkipRotatingSetup.
func TestOrderOrLeave(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	frags := [][]*relation.Fragment{{
		{Rel: jointest.RandomRelation(rng, "wide", 12_500, 1<<20, 248), Index: 0, Of: 2},
		{Rel: jointest.RandomRelation(rng, "small", 2000, 1<<20, 8), Index: 1, Of: 2},
	}}
	for _, skip := range []bool{false, true} {
		c := newCluster(t, Config{Nodes: 1, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}, SkipRotatingSetup: skip})
		rot, err := c.SetupRotating(frags, ByPosition)
		if err != nil {
			t.Fatal(err)
		}
		tuples, _, err := c.tuples(rot)
		if err != nil {
			t.Fatal(err)
		}
		for j, f := range frags[0] {
			name := f.Rel.Schema().Name
			ordered, err := hashjoin.Join{}.SetupRotating(f.Rel, join.Equi{}, join.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(ordered.Keys(), f.Rel.Keys()) {
				t.Fatalf("fixture drifted: the %s fragment is in hash order already", name)
			}
			keys, whole := rot.rotatingKeys[0][j].Rel, tuples[0][j].Rel
			if skip {
				if got := keys.Keys(); len(got) == 0 || &got[0] != &f.Rel.Keys()[0] {
					t.Errorf("skip: the %s fragment's key column was copied", name)
				}
				if whole != f.Rel {
					t.Errorf("skip: the %s fragment's whole tuples were not left as they lie", name)
				}
				continue
			}
			if !slices.Equal(keys.Keys(), ordered.Keys()) {
				t.Errorf("the %s fragment's key column is not in the kernel's order", name)
			}
			if !whole.Equal(ordered) {
				t.Errorf("the %s fragment's whole tuples are not in the kernel's order", name)
			}
		}
	}
}

// TestCountedKeysAreOrdered: the key column a COUNT rotates in sql_3way's
// per-host shape — 50 000 keys bound without their payloads, placed by key
// over four hosts — is in the hash kernel's bucket order inside every owner
// slice, so each owner's probes walk its directory front to back.
func TestCountedKeysAreOrdered(t *testing.T) {
	const nodes, perHost = 4, 50_000
	r := generated(t, "a", nodes*perHost, 21).KeysOnly()
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	rot, err := c.SetupRotating(homed(t, r, nodes, 1), ByKey)
	if err != nil {
		t.Fatal(err)
	}
	defer rot.Release()
	for host, frags := range rot.rotatingKeys {
		rel := frags[0].Rel
		if rel.Len() != perHost || rel.Schema().PayloadWidth != 0 {
			t.Fatalf("host %d rotates %d tuples of %d payload bytes, want %d key-only tuples", host, rel.Len(), rel.Schema().PayloadWidth, perHost)
		}
		if !ownerOrdered(rel, nodes) {
			t.Fatalf("host %d's key column is not ordered by owner", host)
		}
		// The rule the kernel stations a fragment of this size under.
		st, err := hashjoin.Join{}.SetupStationary(rel, join.Equi{}, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rule, _, _, _ := st.(*layout.Stationary).Layout()
		st.Release()
		keys, descents := rel.Keys(), 0
		for i := 1; i < len(keys); i++ {
			if relation.Owner(keys[i], nodes) == relation.Owner(keys[i-1], nodes) && rule.ID(keys[i]) < rule.ID(keys[i-1]) {
				descents++
			}
		}
		if descents > 0 {
			t.Errorf("host %d: %d of %d adjacent keys of an owner slice descend in bucket id", host, descents, len(keys)-nodes)
		}
	}
}
