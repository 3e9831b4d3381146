package core

import (
	"errors"
	"maps"
	"math/rand"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/relation"
)

// TestHandlesServeManyRevolutions keeps two key-placed sides and two
// rotating handles on one cluster and revolves them in every order against
// the nested reference; handles set up and revolved in between leave them
// untouched, and no host holds anything once a revolution has ended.
func TestHandlesServeManyRevolutions(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(31))
	r := jointest.RandomRelation(rng, "R", 700, 200, 4)
	q := jointest.RandomRelation(rng, "Q", 300, 200, 1)
	s0 := jointest.RandomRelation(rng, "S0", 400, 200, 3)
	s1 := jointest.RandomRelation(rng, "S1", 250, 200, 2)
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}, Opts: join.Options{Parallelism: 2}})

	side0, err := c.SetupSideByKey(s0)
	if err != nil {
		t.Fatal(err)
	}
	side1, err := c.SetupSideByKey(s1)
	if err != nil {
		t.Fatal(err)
	}
	rotR, err := c.SetupRotating(homed(t, r, nodes, 2), ByKey)
	if err != nil {
		t.Fatal(err)
	}
	rotQ, err := c.SetupRotating(homed(t, q, nodes, 1), ByKey)
	if err != nil {
		t.Fatal(err)
	}
	handles := map[*relation.Relation]*Side{s0: side0, s1: side1}

	check := func(rel *relation.Relation, rot *Rotating, sides ...*relation.Relation) {
		t.Helper()
		want := referenceFor(t, rel, sides)
		set := make([]*Side, len(sides))
		for j, s := range sides {
			set[j] = handles[s]
		}
		counted, err := c.Revolve(rot, set, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := counted.Matches(); got != want.count {
			t.Errorf("%s against %d sides: %d matches, join/nested finds %d", rel.Schema().Name, len(sides), got, want.count)
		}
		rWidth, sWidth := chainedWidth(rel, sides), sides[len(sides)-1].Schema().PayloadWidth
		rows, err := c.Revolve(rot, set, func(int) join.Collector { return join.NewMaterializer("got", rWidth, sWidth) })
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(rowsOf(t, rows), want.rows) {
			t.Errorf("%s against %d sides: rows differ from join/nested", rel.Schema().Name, len(sides))
		}
		for i, h := range c.hosts {
			if h.sides != nil || h.head != nil || h.links != nil {
				t.Errorf("host %d still holds the revolution's sides after it ended", i)
			}
		}
	}

	check(r, rotR, s0)
	check(q, rotQ, s1)
	check(r, rotR, s0, s1)
	check(q, rotQ, s1, s0)

	// Other handles come and go without touching these.
	extraSide, err := c.SetupSideByKey(s1)
	if err != nil {
		t.Fatal(err)
	}
	extraRot, err := c.SetupRotating(homed(t, q, nodes, 1), ByKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Revolve(extraRot, []*Side{extraSide}, nil); err != nil {
		t.Fatal(err)
	}
	check(r, rotR, s1, s0)
	check(q, rotQ, s0)
}

// TestRevolveRefusesHandles: a handle from another cluster, handles placed
// differently, position-placed sides in a chain, and handles set up before a
// ReplaceHost are each refused — the last until they are set up again.
func TestRevolveRefusesHandles(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(37))
	r := jointest.RandomRelation(rng, "R", 300, 100, 4)
	s := jointest.RandomRelation(rng, "S", 200, 100, 4)
	cfg := Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}}
	c, other := newCluster(t, cfg), newCluster(t, cfg)
	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		t.Fatal(err)
	}

	keySide, err := c.SetupSideByKey(s)
	if err != nil {
		t.Fatal(err)
	}
	posSide, err := c.SetupSide(sFrags)
	if err != nil {
		t.Fatal(err)
	}
	keyRot, err := c.SetupRotating(homed(t, r, nodes, 1), ByKey)
	if err != nil {
		t.Fatal(err)
	}
	posRot, err := c.SetupRotating(homed(t, r, nodes, 1), ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.SetupSideByKey(s)
	if err != nil {
		t.Fatal(err)
	}

	for _, tt := range []struct {
		name  string
		rot   *Rotating
		sides []*Side
		want  error
	}{
		{"side from another cluster", keyRot, []*Side{keySide, foreign}, ErrForeignHandle},
		{"key rotating, position side", keyRot, []*Side{posSide}, ErrMixedPlacement},
		{"position rotating, key side", posRot, []*Side{keySide}, ErrMixedPlacement},
	} {
		if _, err := c.Revolve(tt.rot, tt.sides, nil); !errors.Is(err, tt.want) {
			t.Errorf("%s: err = %v, want %v", tt.name, err, tt.want)
		}
	}
	if _, err := other.Revolve(keyRot, []*Side{foreign}, nil); !errors.Is(err, ErrForeignHandle) {
		t.Errorf("rotating handle from another cluster: err = %v, want %v", err, ErrForeignHandle)
	}
	if _, err := c.Revolve(posRot, []*Side{posSide, posSide}, nil); err == nil {
		t.Error("two position-placed sides: want an error, only key placement chains")
	}
	if _, err := c.Revolve(keyRot, nil, nil); err == nil {
		t.Error("no side: want an error")
	}

	want := referenceFor(t, r, []*relation.Relation{s}).count
	for _, pair := range []struct {
		rot  *Rotating
		side *Side
	}{{keyRot, keySide}, {posRot, posSide}} {
		if res, err := c.Revolve(pair.rot, []*Side{pair.side}, nil); err != nil || res.Matches() != want {
			t.Fatalf("valid handles refused or wrong: %v", err)
		}
	}

	if err := c.ReplaceHost(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Revolve(keyRot, []*Side{keySide}, nil); !errors.Is(err, ErrStaleHandle) {
		t.Errorf("handles set up before ReplaceHost: err = %v, want %v", err, ErrStaleHandle)
	}
	fresh, err := c.SetupSideByKey(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Revolve(keyRot, []*Side{fresh}, nil); !errors.Is(err, ErrStaleHandle) {
		t.Errorf("a stale rotating handle beside a fresh side: err = %v, want %v", err, ErrStaleHandle)
	}
	freshRot, err := c.SetupRotating(homed(t, r, nodes, 1), ByKey)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Revolve(freshRot, []*Side{fresh}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches() != want {
		t.Errorf("after re-setup: %d matches, want %d", res.Matches(), want)
	}
}
