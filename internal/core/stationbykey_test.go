package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/trace"
	"cyclojoin/internal/workload"
)

// nestedChain is the reference for a key-placed revolution: r ⋈ sides[0] ⋈
// sides[1] … as
// a left-deep sequence of join/nested runs into join.Materializers, which is
// the row layout the chain promises.
func nestedChain(t *testing.T, r *relation.Relation, sides []*relation.Relation) *relation.Relation {
	t.Helper()
	for _, s := range sides {
		st, err := nested.Join{}.SetupStationary(s, join.Equi{}, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := join.NewMaterializer("ref", r.Schema().PayloadWidth, s.Schema().PayloadWidth)
		if err := st.Join(r, m); err != nil {
			t.Fatal(err)
		}
		r = m.Result()
	}
	return r
}

// homed cuts r into perHost rotating fragments for each of nodes hosts,
// numbered across the hosts as the ring wants them.
func homed(t *testing.T, r *relation.Relation, nodes, perHost int) [][]*relation.Fragment {
	t.Helper()
	parts, err := relation.Partition(r, nodes*perHost)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]*relation.Fragment, nodes)
	for i := range out {
		out[i] = parts[i*perHost : (i+1)*perHost]
	}
	return out
}

// newCluster builds a cluster with 256 KiB ring buffers: every fragment of
// these tests fits, and registering the default 4 MiB × slots × nodes per
// cluster would be most of what a few dozen clusters cost.
func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.Ring.BufferBytes = 256 << 10
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
	})
	return c
}

// rowsOf gathers the per-host Materializers of a revolution as one multiset.
func rowsOf(t *testing.T, res *Result) map[string]int {
	t.Helper()
	got := map[string]int{}
	for _, col := range res.Collectors {
		m, ok := col.(*join.Materializer)
		if !ok {
			t.Fatalf("collector is %T, want *join.Materializer", col)
		}
		for row, n := range jointest.RowCounts(m.Result()) {
			got[row] += n
		}
	}
	return got
}

// chainedWidth is the rPay width the last side's collector sees.
func chainedWidth(r *relation.Relation, sides []*relation.Relation) int {
	w := r.Schema().PayloadWidth
	for _, s := range sides[:len(sides)-1] {
		w += s.Schema().TupleWidth()
	}
	return w
}

// reference is a nested-loops result as the multiset of its rows.
type reference struct {
	rows  map[string]int
	count int64
}

func referenceFor(t *testing.T, r *relation.Relation, sides []*relation.Relation) reference {
	t.Helper()
	want := nestedChain(t, r, sides)
	return reference{rows: jointest.RowCounts(want), count: int64(want.Len())}
}

// keyHandles places every side by key and orders rFrags by owner.
func keyHandles(t *testing.T, c *Cluster, sides []*relation.Relation, rFrags [][]*relation.Fragment) (*Rotating, []*Side) {
	t.Helper()
	set := make([]*Side, len(sides))
	for j, s := range sides {
		var err error
		if set[j], err = c.SetupSideByKey(s); err != nil {
			t.Fatal(err)
		}
	}
	rot, err := c.SetupRotating(rFrags, ByKey)
	if err != nil {
		t.Fatal(err)
	}
	return rot, set
}

// checkByKey stations sides by key under r's fragments and checks a counting
// revolution and a materializing one against the nested reference.
func checkByKey(t *testing.T, c *Cluster, r *relation.Relation, sides []*relation.Relation, rFrags [][]*relation.Fragment) {
	t.Helper()
	checkByKeyAgainst(t, c, referenceFor(t, r, sides), r, sides, rFrags)
}

// checkByKeyAgainst is checkByKey for a caller that computed the reference.
func checkByKeyAgainst(t *testing.T, c *Cluster, want reference, r *relation.Relation, sides []*relation.Relation, rFrags [][]*relation.Fragment) {
	t.Helper()
	rot, set := keyHandles(t, c, sides, rFrags)
	counted, err := c.Revolve(rot, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.Matches(); got != want.count {
		t.Errorf("%d sides, counting: %d matches, join/nested finds %d", len(sides), got, want.count)
	}
	rWidth, sWidth := chainedWidth(r, sides), sides[len(sides)-1].Schema().PayloadWidth
	rows, err := c.Revolve(rot, set, func(int) join.Collector { return join.NewMaterializer("got", rWidth, sWidth) })
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, rows); !maps.Equal(got, want.rows) {
		t.Errorf("%d sides, materializing: rows differ from join/nested (%d distinct, want %d)",
			len(sides), len(got), len(want.rows))
	}
}

// byPosition sets up sFrags where they lie and rFrags on their home hosts:
// the handles Station stages, for a caller that chooses its collectors per
// revolution.
func byPosition(t *testing.T, c *Cluster, sFrags []*relation.Fragment, rFrags [][]*relation.Fragment) (*Rotating, []*Side) {
	t.Helper()
	side, err := c.SetupSide(sFrags)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := c.SetupRotating(rFrags, ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	return rot, []*Side{side}
}

// TestStationByKeyMatchesNested is the correctness property of the
// one-revolution shape: for one to four stationary sides, ring sizes that are
// and are not powers of two, one and four probe workers per host (the chain's
// links are then emitted into concurrently), both transports, and two
// rotating fragments per host, the hosts' collectors together hold exactly
// the rows a left-deep sequence of nested-loops joins produces — payload
// bytes included — and a counting revolution counts them.
func TestStationByKeyMatchesNested(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	r := jointest.RandomRelation(rng, "R", 900, 300, 4)
	sides := []*relation.Relation{
		jointest.RandomRelation(rng, "S0", 500, 300, 6),
		jointest.RandomRelation(rng, "S1", 450, 300, 0),
		jointest.RandomRelation(rng, "S2", 400, 300, 3),
		jointest.RandomRelation(rng, "S3", 350, 300, 5),
	}
	wants := make([]reference, len(sides)+1)
	for k := 1; k <= len(sides); k++ {
		wants[k] = referenceFor(t, r, sides[:k])
	}
	for _, links := range []struct {
		name    string
		factory ring.LinkFactory
	}{{"mem", nil}, {"tcp", ring.TCPLinks()}} {
		for _, nodes := range []int{1, 2, 3, 4, 5} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/nodes=%d/workers=%d", links.name, nodes, workers), func(t *testing.T) {
					c := newCluster(t, Config{
						Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{},
						Opts: join.Options{Parallelism: workers}, Links: links.factory,
					})
					rFrags := homed(t, r, nodes, 2)
					for k := 1; k <= len(sides); k++ {
						checkByKeyAgainst(t, c, wants[k], r, sides[:k], rFrags)
					}
				})
			}
		}
	}
}

// TestStationByKeySkew: placement follows the keys, so skew moves work but
// must not move answers — Zipf keys on every side, and one key that is half
// of a stationary table (it, and all its matches, land on one host).
func TestStationByKeySkew(t *testing.T) {
	gen := func(name string, tuples int, seed int64) *relation.Relation {
		rel, err := workload.Generate(workload.Spec{Name: name, Tuples: tuples, KeyDomain: 400, Zipf: 0.9, Seed: seed, PayloadWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	r := gen("R", 1200, 1)
	s0 := gen("S0", 300, 2)
	heavy := relation.New(relation.Schema{Name: "S1", PayloadWidth: 2}, 200)
	for i := 0; i < 200; i++ {
		k := uint64(i)
		if i%2 == 0 {
			k = r.Key(0)
		}
		if err := heavy.Append(k, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, nodes := range []int{3, 4} {
		c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}, Opts: join.Options{Parallelism: 4}})
		checkByKey(t, c, r, []*relation.Relation{s0, heavy}, homed(t, r, nodes, 1))
	}
}

// TestStationByKeyEmptyShares covers the degenerate placements: a stationary
// side with no tuples, hosts that own no key at all (every key of every
// relation belongs to one owner, so the others slice nothing out of every
// fragment), and hosts that inject no fragment.
func TestStationByKeyEmptyShares(t *testing.T) {
	const nodes = 4
	var owned []uint64 // keys relation.Owner gives host 2
	for k := uint64(0); len(owned) < 40; k++ {
		if relation.Owner(k, nodes) == 2 {
			owned = append(owned, k)
		}
	}
	rng := rand.New(rand.NewSource(5))
	pick := func(n, width int) *relation.Relation {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = owned[rng.Intn(len(owned))]
		}
		return jointest.Numbered(keys, width)
	}
	r, s0, s1 := pick(300, 4), pick(120, 2), pick(100, 3)
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})

	checkByKey(t, c, r, []*relation.Relation{s0, s1}, homed(t, r, nodes, 1))

	// Only host 0 injects, and in three fragments.
	parts, err := relation.Partition(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkByKey(t, c, r, []*relation.Relation{s0, s1}, [][]*relation.Fragment{parts, nil, nil, nil})

	empty := relation.New(relation.Schema{Name: "E", PayloadWidth: 1}, 0)
	checkByKey(t, c, r, []*relation.Relation{s0, empty}, homed(t, r, nodes, 1))
	checkByKey(t, c, r, []*relation.Relation{empty, s1}, homed(t, r, nodes, 1))
	checkByKey(t, c, empty, []*relation.Relation{s0}, homed(t, empty, nodes, 1))
}

// ownerOrdered reports whether rel's keys are sorted by owner.
func ownerOrdered(rel *relation.Relation, nodes int) bool {
	return sort.SliceIsSorted(rel.Keys(), func(i, j int) bool {
		return relation.Owner(rel.Key(i), nodes) < relation.Owner(rel.Key(j), nodes)
	})
}

// TestOwnerOrderIsNotOptional: the owner slice a host takes is only correct
// on owner-ordered fragments, so SetupRotating under ByKey orders every
// fragment a host injects, its key column and its whole tuples — with and
// without the kernel's own reorganization — and Station never does (a
// position-placed revolution ships what the parent shipped).
func TestOwnerOrderIsNotOptional(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(13))
	r := jointest.RandomRelation(rng, "R", 40_000, 5000, 4)
	s := jointest.RandomRelation(rng, "S", 600, 5000, 4)
	if ownerOrdered(r, nodes) {
		t.Fatal("fixture drifted: the input is owner-ordered already")
	}
	rFrags := homed(t, r, nodes, 3)
	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(workload.ExpectedMatches(workload.Multiplicities(r), workload.Multiplicities(s)))

	for _, skip := range []bool{false, true} {
		c := newCluster(t, Config{
			Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}, SkipRotatingSetup: skip,
			// 8 KiB of L2: SetupRotating really clusters these fragments.
			Opts: join.Options{L2CacheBytes: 8 << 10},
		})
		side, err := c.SetupSideByKey(s)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := c.SetupRotating(rFrags, ByKey)
		if err != nil {
			t.Fatal(err)
		}
		rotating, _, err := c.tuples(rot)
		if err != nil {
			t.Fatal(err)
		}
		for host, frags := range rotating {
			for j, f := range frags {
				if !ownerOrdered(f.Rel, nodes) || !ownerOrdered(rot.rotatingKeys[host][j].Rel, nodes) {
					t.Errorf("skip=%v: host %d's fragment %d is not owner-ordered under ByKey", skip, host, j)
				}
			}
		}
		res, err := c.Revolve(rot, []*Side{side}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches() != want {
			t.Errorf("skip=%v: key placement counts %d matches, want %d", skip, res.Matches(), want)
		}

		if err := c.Station(sFrags, rFrags); err != nil {
			t.Fatal(err)
		}
		staged, _, err := c.tuples(c.staged)
		if err != nil {
			t.Fatal(err)
		}
		for host, frags := range staged {
			for j, f := range frags {
				if skip && f.Rel != rFrags[host][j].Rel {
					t.Errorf("Station under SkipRotatingSetup copied host %d's fragment %d", host, j)
				}
				if ownerOrdered(f.Rel, nodes) {
					t.Errorf("skip=%v: Station owner-ordered host %d's fragment %d", skip, host, j)
				}
			}
		}
	}
}

// TestPlacementDoesNotLeakAcrossStations alternates the two placements on one
// cluster. A host that kept the key-placed flag under a position-placed
// Station would probe a third of each fragment; one that lost it would
// still be right but probe everything — the probe-count test pins that side.
func TestPlacementDoesNotLeakAcrossStations(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(23))
	r := jointest.RandomRelation(rng, "R", 800, 200, 4)
	s0 := jointest.RandomRelation(rng, "S0", 500, 200, 4)
	s1 := jointest.RandomRelation(rng, "S1", 300, 200, 2)
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	rFrags := homed(t, r, nodes, 1)
	sFrags, err := relation.Partition(s0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	keyStations, posStations := mKeyStations.Value(), mPositionStations.Value()

	checkByKey(t, c, r, []*relation.Relation{s0, s1}, rFrags)

	if err := c.Station(sFrags, rFrags); err != nil {
		t.Fatal(err)
	}
	res, err := c.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(nestedChain(t, r, []*relation.Relation{s0}).Len()); res.Matches() != want {
		t.Errorf("Station after key-placed sides: %d matches, join/nested finds %d", res.Matches(), want)
	}

	checkByKey(t, c, r, []*relation.Relation{s1, s0}, rFrags)

	if got := mKeyStations.Value() - keyStations; got != 4 {
		t.Errorf(`core_stations_total{placement="key"} rose by %d, want 4`, got)
	}
	if got := mPositionStations.Value() - posStations; got != 1 {
		t.Errorf(`core_stations_total{placement="position"} rose by %d, want 1`, got)
	}
}

func TestReplaceHostAfterStationByKey(t *testing.T) {
	const nodes = 3
	r := workload.Sequential("R", 600, 4)
	s := workload.Sequential("S", 600, 4)
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	rFrags := homed(t, r, nodes, 1)
	rot, sides := keyHandles(t, c, []*relation.Relation{s, s}, rFrags)
	if err := c.ReplaceHost(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Revolve(rot, sides, nil); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("Revolve after ReplaceHost: err = %v, want ErrStaleHandle", err)
	}
	rot, sides = keyHandles(t, c, []*relation.Relation{s, s}, rFrags)
	res, err := c.Revolve(rot, sides, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches() != 600 {
		t.Errorf("matches after a fresh setup = %d, want 600", res.Matches())
	}
}

func TestStationByKeyValidation(t *testing.T) {
	r := workload.Sequential("R", 60, 4)
	c := newCluster(t, Config{Nodes: 2, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	rot, err := c.SetupRotating(homed(t, r, 2, 1), ByKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Revolve(rot, nil, nil); err == nil {
		t.Error("no stationary side: want error")
	}
	if _, err := c.SetupRotating(homed(t, r, 3, 1), ByKey); err == nil {
		t.Error("rotating slots for another ring size: want error")
	}
	// Keys a band apart match but live on different hosts.
	band := newCluster(t, Config{Nodes: 2, Algorithm: sortmerge.Join{}, Predicate: join.Band{Width: 1}})
	if _, err := band.SetupSideByKey(r); err == nil {
		t.Error("band join: want error, key placement needs an equi-join")
	}
}

// probed sums the tuples the kernels report having probed (the Arg of every
// trace.PhaseProbe span) since the recorder was last reset.
func probed(t *testing.T, rec *trace.Recorder) int64 {
	t.Helper()
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("flight recorder dropped %d spans: raise the shard capacity", d)
	}
	var total int64
	for _, sp := range rec.Snapshot() {
		if sp.Phase == trace.PhaseProbe {
			total += sp.Arg
		}
	}
	return total
}

// TestProbeCounts states the saving as a count: a position-placed revolution
// probes every rotating tuple on every host, nodes·|R| in all — exactly what
// it did before key placement existed; a key-placed one probes each rotating
// tuple once, on its owner, plus one probe per match handed down the chain.
func TestProbeCounts(t *testing.T) {
	const nodes = 4
	rng := rand.New(rand.NewSource(41))
	r := jointest.RandomRelation(rng, "R", 3000, 400, 4)
	sides := []*relation.Relation{
		jointest.RandomRelation(rng, "S0", 500, 400, 4),
		jointest.RandomRelation(rng, "S1", 450, 400, 2),
		jointest.RandomRelation(rng, "S2", 400, 400, 0),
	}
	rec := trace.NewRecorder(1 << 14)
	c := newCluster(t, Config{
		Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{},
		Ring: ring.Config{Flight: rec},
	})
	rFrags := homed(t, r, nodes, 2)

	sFrags, err := relation.Partition(sides[0], nodes)
	if err != nil {
		t.Fatal(err)
	}
	rot, side := byPosition(t, c, sFrags, rFrags)
	for _, collect := range []func(int) join.Collector{nil, func(int) join.Collector { return join.NewPairSet() }} {
		rec.Reset()
		if _, err := c.Revolve(rot, side, collect); err != nil {
			t.Fatal(err)
		}
		if got, want := probed(t, rec), int64(nodes*r.Len()); got != want {
			t.Errorf("Station: a revolution probed %d tuples, want nodes·|R| = %d", got, want)
		}
	}

	// matches[k] is |R ⋈ sides[0] ⋈ … ⋈ sides[k-1]|; matches[0] is |R|.
	matches := []int64{int64(r.Len())}
	for k := 1; k <= len(sides); k++ {
		matches = append(matches, int64(nestedChain(t, r, sides[:k]).Len()))
	}
	for k := 1; k <= len(sides); k++ {
		var want int64 // every rotating tuple once, plus every match handed to a later side
		for _, m := range matches[:k] {
			want += m
		}
		rot, set := keyHandles(t, c, sides[:k], rFrags)
		chained := mChainMatches.Value()
		rec.Reset()
		res, err := c.Revolve(rot, set, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := probed(t, rec); got != want {
			t.Errorf("by key, %d sides: a revolution probed %d tuples, want |R| + chained matches = %d", k, got, want)
		}
		if got := mChainMatches.Value() - chained; got != want-matches[0] {
			t.Errorf("by key, %d sides: core_chain_matches_total rose by %d, want %d", k, got, want-matches[0])
		}
		if got := res.Matches(); got != matches[k] {
			t.Errorf("by key, %d sides: %d matches, want %d", k, got, matches[k])
		}
	}
}

// TestChainBatchBoundaries drives a link to exactly one full batch (joined
// from Emit, nothing left to flush), one tuple more (the flush joins the
// residual), and two batches and one.
func TestChainBatchBoundaries(t *testing.T) {
	const nodes = 2
	one := jointest.Numbered([]uint64{7}, 2)
	c := newCluster(t, Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	for _, n := range []int{batchRows - 1, batchRows, batchRows + 1, 2*batchRows + 1} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 7
		}
		r := jointest.Numbered(keys, 3)
		// The whole batch sits in one fragment of one host.
		rFrags := [][]*relation.Fragment{{{Rel: r, Index: 0, Of: 1}}, nil}
		checkByKey(t, c, r, []*relation.Relation{one, one, one}, rFrags)
	}
}

// failingSide is hashjoin, except that the stationary side built over the
// relation of the given name fails every Join.
type failingSide struct {
	hashjoin.Join
	name string
}

func (f failingSide) SetupStationary(s *relation.Relation, p join.Predicate, o join.Options) (join.Stationary, error) {
	st, err := f.Join.SetupStationary(s, p, o)
	if err != nil || s.Schema().Name != f.name {
		return st, err
	}
	always := new(atomic.Int32)
	always.Store(math.MaxInt32)
	return &faultyStationary{inner: st, failures: always}, nil
}

// TestChainErrorFailsTheHop: an error of a later side surfaces as the error
// of the hop whose matches it was joining — whether the batch join ran from
// the flush (few matches) or from inside an Emit (more than a batch).
func TestChainErrorFailsTheHop(t *testing.T) {
	for _, tuples := range []int{50, 3 * batchRows} {
		keys := make([]uint64, tuples)
		r := jointest.Numbered(keys, 2) // all key 0: every match on one host
		s := jointest.Numbered([]uint64{0}, 2)
		bad, err := relation.Wrap(relation.Schema{Name: "bad", PayloadWidth: 2}, s.Keys(), s.PayloadColumn())
		if err != nil {
			t.Fatal(err)
		}
		c := newCluster(t, Config{Nodes: 2, Algorithm: failingSide{name: "bad"}, Predicate: join.Equi{}})
		rot, sides := keyHandles(t, c, []*relation.Relation{s, bad}, homed(t, r, 2, 1))
		if _, err := c.Revolve(rot, sides, nil); !errors.Is(err, errInjected) {
			t.Errorf("%d matches into a failing side: err = %v, want the injected failure", tuples, err)
		}
	}
}

// TestSingleSideChainsNothing: one stationary side means no link, no batch
// and no allocation per revolution — a revolution of one side costs what it
// cost before chains existed.
func TestSingleSideChainsNothing(t *testing.T) {
	st, err := hashjoin.Join{}.SetupStationary(workload.Sequential("S", 10, 0), join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sides := []join.Stationary{st}
	final := &join.Counter{}
	if allocs := testing.AllocsPerRun(100, func() {
		head, links := chain(sides, final, true)
		if head != join.Collector(final) || links != nil {
			t.Fatal("a single side must emit straight into the revolution's collector")
		}
	}); allocs != 0 {
		t.Errorf("chaining a single side allocates %.0f times, want 0", allocs)
	}
}
