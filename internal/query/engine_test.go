package query

import (
	"errors"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/workload"
)

// The tests below pin the engine's lifetime: one ring, built by the first
// join step, shared by every later step and query, dropped by a step that
// fails, released by Close. The counters are process-wide, so each test
// asserts deltas; no test in this package runs in parallel with another.

const threeWay = "SELECT COUNT(*) FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id"

// nestedJoin is the reference for one join step: r ⋈ s on key equality by
// join/nested, in the layout the engine materializes (key = r's key,
// payload = r's payload ‖ s's key ‖ s's payload).
func nestedJoin(t *testing.T, r, s *relation.Relation) *relation.Relation {
	t.Helper()
	st, err := nested.Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := join.NewMaterializer("ref", r.Schema().PayloadWidth, s.Schema().PayloadWidth)
	if err := st.Join(r, m); err != nil {
		t.Fatal(err)
	}
	return m.Result()
}

func table(t *testing.T, cat *Catalog, name string) *relation.Relation {
	t.Helper()
	entry, err := cat.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return entry.rel
}

func TestRingBuiltOnceAcrossQueries(t *testing.T) {
	e := newEngine(t, fixture(t))
	builds, steps := mRingBuilds.Value(), mJoinSteps.Value()
	for i := 0; i < 10; i++ {
		res, err := e.Execute(threeWay)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 50 {
			t.Fatalf("query %d: count = %d, want 50", i, res.Count)
		}
	}
	if got := mRingBuilds.Value() - builds; got != 1 {
		t.Errorf("query_ring_builds_total rose by %d over ten queries, want 1", got)
	}
	// Three 100-row tables on three hosts are placed by key: one Station
	// and one revolution per query, however many tables it joins.
	if got := mJoinSteps.Value() - steps; got != 10 {
		t.Errorf("query_join_steps_total rose by %d over ten key-placed 3-way queries, want 10", got)
	}
}

// TestEngineRecoversFromDeadRing makes a revolution abort inside ring.Run —
// a tuple wider than a ring buffer cannot be forwarded — which closes the
// ring. The failure must stay with that query: the next one gets a fresh
// ring. Only SELECT * ships that tuple: a COUNT(*) over the same table reads
// its key column alone, so it runs on the warm ring and never sees the
// payload.
func TestEngineRecoversFromDeadRing(t *testing.T) {
	cat := fixture(t)
	wide := relation.New(relation.Schema{Name: "wide", PayloadWidth: ring.DefaultBufferBytes}, 1)
	if err := wide.Append(4, make([]byte, ring.DefaultBufferBytes)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("wide", "id", wide); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, cat)
	builds := mRingBuilds.Value()

	_, err := e.Execute("SELECT * FROM wide JOIN nums ON wide.id = nums.id")
	if err == nil || !strings.Contains(err.Error(), "ring: run aborted") {
		t.Fatalf("oversize tuple: err = %v, want an aborted revolution", err)
	}
	if got := mRingBuilds.Value() - builds; got != 1 {
		t.Fatalf("builds after the failed query = %d, want 1", got)
	}

	res, err := e.Execute(threeWay)
	if err != nil {
		t.Fatalf("healthy query after a dead ring: %v", err)
	}
	if res.Count != 50 {
		t.Errorf("count = %d, want 50", res.Count)
	}
	if got := mRingBuilds.Value() - builds; got != 2 {
		t.Errorf("builds after recovery = %d, want 2", got)
	}

	res, err = e.Execute("SELECT COUNT(*) FROM wide JOIN nums ON wide.id = nums.id")
	if err != nil {
		t.Fatalf("COUNT(*) over the oversize table: %v", err)
	}
	if res.Count != 1 {
		t.Errorf("count = %d, want 1 (key 4 is in nums once)", res.Count)
	}
	if got := mRingBuilds.Value() - builds; got != 2 {
		t.Errorf("builds after the key-only count = %d, want 2: it must run on the warm ring", got)
	}
}

func TestConcurrentQueriesShareOneRing(t *testing.T) {
	cat := fixture(t)
	e := newEngine(t, cat)
	nums, evens, dups := table(t, cat, "nums"), table(t, cat, "evens"), table(t, cat, "dups")
	twoWayRows := jointest.RowCounts(nestedJoin(t, nums, evens))
	threeWayRows := jointest.RowCounts(nestedJoin(t, nestedJoin(t, nums, evens), dups))

	sum := uint64(2450) // the even keys 0..98
	queries := []struct {
		sql   string
		count int64
		agg   *uint64
		rows  map[string]int
	}{
		{sql: "SELECT COUNT(*) FROM nums JOIN evens ON nums.id = evens.id", count: 50},
		{sql: threeWay, count: 50},
		{sql: "SELECT SUM(nums.id) FROM nums JOIN evens ON nums.id = evens.id", count: 50, agg: &sum},
		{sql: "SELECT COUNT(*) FROM nums JOIN dups ON nums.id = dups.id WHERE dups.id < 5", count: 50},
		{sql: "SELECT * FROM nums JOIN evens ON nums.id = evens.id", count: 50, rows: twoWayRows},
		{sql: "SELECT * FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id", count: 50, rows: threeWayRows},
	}

	builds := mRingBuilds.Value()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(queries); i++ {
				q := queries[(g+i)%len(queries)]
				res, err := e.Execute(q.sql)
				if err != nil {
					t.Errorf("%s: %v", q.sql, err)
					continue
				}
				if res.Count != q.count {
					t.Errorf("%s: count = %d, want %d", q.sql, res.Count, q.count)
				}
				if q.agg != nil && (res.AggValue == nil || *res.AggValue != *q.agg) {
					t.Errorf("%s: aggregate = %v, want %d", q.sql, res.AggValue, *q.agg)
				}
				if q.rows != nil && !maps.Equal(jointest.RowCounts(res.Rows), q.rows) {
					t.Errorf("%s: rows differ from join/nested", q.sql)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := mRingBuilds.Value() - builds; got != 1 {
		t.Errorf("eight clients built %d rings, want 1", got)
	}
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	e := newEngine(t, fixture(t))
	if _, err := e.Execute(threeWay); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	for _, sql := range []string{threeWay, "SELECT COUNT(*) FROM nums"} {
		if _, err := e.Execute(sql); !errors.Is(err, ErrClosed) {
			t.Errorf("Execute(%q) after Close: err = %v, want ErrClosed", sql, err)
		}
	}
}

func TestEngineWithoutJoinsBuildsNoRing(t *testing.T) {
	e := newEngine(t, fixture(t))
	builds := mRingBuilds.Value()
	if _, err := e.Execute("SELECT COUNT(*) FROM nums WHERE nums.id < 10"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Explain(threeWay); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mRingBuilds.Value() - builds; got != 0 {
		t.Errorf("single-table query, EXPLAIN and Close built %d rings, want 0", got)
	}
}

// TestPayloadWidthsShareOneRing runs consecutive steps whose rotating side
// is a 12 B base table, a 24 B intermediate and a 256 B base table: the
// ring's buffers are sized in bytes, not in tuples of one schema.
func TestPayloadWidthsShareOneRing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := jointest.RandomRelation(rng, "a", 300, 40, 4)
	b := jointest.RandomRelation(rng, "b", 200, 40, 4)
	w := jointest.RandomRelation(rng, "w", 100, 40, 248)
	cat := NewCatalog()
	for name, rel := range map[string]*relation.Relation{"a": a, "b": b, "w": w} {
		if err := cat.Register(name, "k", rel); err != nil {
			t.Fatal(err)
		}
	}
	e := newEngine(t, cat)
	builds := mRingBuilds.Value()

	res, err := e.Execute("SELECT * FROM a JOIN b ON a.k = b.k JOIN w ON b.k = w.k")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(jointest.RowCounts(res.Rows), jointest.RowCounts(nestedJoin(t, nestedJoin(t, a, b), w))) {
		t.Error("12 B then 24 B rotating: rows differ from join/nested")
	}
	res, err = e.Execute("SELECT * FROM w JOIN a ON w.k = a.k")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(jointest.RowCounts(res.Rows), jointest.RowCounts(nestedJoin(t, w, a))) {
		t.Error("256 B rotating: rows differ from join/nested")
	}
	if got := mRingBuilds.Value() - builds; got != 1 {
		t.Errorf("three steps of three widths built %d rings, want 1", got)
	}
}

// TestSelectStarThroughTwoSteps compares SELECT * over a three-way join
// with join/nested as a multiset: the intermediate stays where each host
// produced it, so row order depends on the placement.
func TestSelectStarThroughTwoSteps(t *testing.T) {
	cat := fixture(t)
	e := newEngine(t, cat)
	nums, evens, dups := table(t, cat, "nums"), table(t, cat, "evens"), table(t, cat, "dups")

	// The last host's share of evens is keys 132..198, none of them in
	// nums: its part of the intermediate is empty.
	parts, err := relation.Partition(evens, e.nodes)
	if err != nil {
		t.Fatal(err)
	}
	if last := parts[e.nodes-1].Rel; last.Len() == 0 || last.Key(0) < 100 {
		t.Fatalf("fixture drifted: the last host's evens start at key %d", last.Key(0))
	}

	res, err := e.Execute("SELECT * FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id")
	if err != nil {
		t.Fatal(err)
	}
	want := nestedJoin(t, nestedJoin(t, nums, evens), dups)
	if res.Count != int64(want.Len()) || !maps.Equal(jointest.RowCounts(res.Rows), jointest.RowCounts(want)) {
		t.Errorf("3-way SELECT *: %d rows, join/nested finds %d; multisets equal = %v",
			res.Count, want.Len(), maps.Equal(jointest.RowCounts(res.Rows), jointest.RowCounts(want)))
	}

	// Every host's intermediate empty.
	res, err = e.Execute("SELECT * FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id WHERE evens.id > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Rows.Len() != 0 {
		t.Errorf("empty intermediate: %d rows, want 0", res.Count)
	}
}

// moduloTable builds n narrow tuples with key i*mul mod domain and returns
// the key histogram beside them.
func moduloTable(t *testing.T, name string, n int, mul, domain uint64) (*relation.Relation, []int64) {
	t.Helper()
	keys := make([]uint64, n)
	hist := make([]int64, domain)
	for i := range keys {
		keys[i] = uint64(i) * mul % domain
		hist[keys[i]]++
	}
	schema := workload.PaperSchema(name)
	rel, err := relation.Wrap(schema, keys, make([]byte, n*schema.PayloadWidth))
	if err != nil {
		t.Fatal(err)
	}
	return rel, hist
}

// TestLargeTablesRotateInSeveralFragments is the regression test for tables
// whose per-host share does not fit one ring buffer: COUNT(*) rotates the
// 8 B key column, and 2.4 M × 8 B on 4 nodes is 4.8 MB per host against
// 4 MiB buffers.
func TestLargeTablesRotateInSeveralFragments(t *testing.T) {
	const n, domain = 2_400_000, 1 << 20
	a, ha := moduloTable(t, "a", n, 7, domain)
	b, hb := moduloTable(t, "b", n, 3, domain/2)
	var want int64
	for k := range hb {
		want += ha[k] * hb[k]
	}
	cat := NewCatalog()
	if err := cat.Register("a", "k", a); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("b", "k", b); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cat, 4, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = e.Close()
	}()
	res, err := e.Execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("count = %d, key histograms give %d", res.Count, want)
	}
}

// TestAggregatesOverWideTables: COUNT(*), SUM, MIN and MAX bind the key
// columns alone, so over 256 B-wide tables they must still answer what
// SELECT * over the same FROM and WHERE gives, and what join/nested gives on
// the whole tuples.
func TestAggregatesOverWideTables(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tables := map[string]*relation.Relation{
		"a": jointest.RandomRelation(rng, "a", 300, 40, 248),
		"b": jointest.RandomRelation(rng, "b", 200, 40, 248),
		"c": jointest.RandomRelation(rng, "c", 150, 40, 248),
	}
	cat := NewCatalog()
	for name, rel := range tables {
		if err := cat.Register(name, "k", rel); err != nil {
			t.Fatal(err)
		}
	}
	e := newEngine(t, cat)

	// where keeps the tuples of rel whose key passes keep (nil: all of
	// them), payloads included.
	where := func(rel *relation.Relation, keep func(k uint64) bool) *relation.Relation {
		out := relation.New(rel.Schema(), rel.Len())
		for i := 0; i < rel.Len(); i++ {
			if keep == nil || keep(rel.Key(i)) {
				if err := out.AppendFrom(rel, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	froms := []struct {
		sql    string
		tables []string
	}{
		{"a JOIN b ON a.k = b.k", []string{"a", "b"}},
		{"a JOIN b ON a.k = b.k JOIN c ON b.k = c.k", []string{"a", "b", "c"}},
	}
	wheres := []struct {
		sql  string
		keep map[string]func(k uint64) bool
	}{
		{"", nil},
		{" WHERE a.k < 25 AND b.k >= 3", map[string]func(k uint64) bool{
			"a": func(k uint64) bool { return k < 25 },
			"b": func(k uint64) bool { return k >= 3 },
		}},
	}
	// fold answers all four selects from a result's key column.
	type answers struct {
		count         int64
		sum, min, max uint64
	}
	fold := func(rows *relation.Relation) answers {
		a := answers{count: int64(rows.Len()), min: ^uint64(0)}
		for _, k := range rows.Keys() {
			a.sum += k
			a.min = min(a.min, k)
			a.max = max(a.max, k)
		}
		return a
	}

	for _, from := range froms {
		for _, wh := range wheres {
			tail := " FROM " + from.sql + wh.sql
			var ref *relation.Relation
			for _, name := range from.tables {
				if in := where(tables[name], wh.keep[name]); ref == nil {
					ref = in
				} else {
					ref = nestedJoin(t, ref, in)
				}
			}
			want := fold(ref)
			if want.count == 0 {
				t.Fatalf("%s: fixture drifted, the join is empty", tail)
			}
			star, err := e.Execute("SELECT *" + tail)
			if err != nil {
				t.Fatalf("SELECT *%s: %v", tail, err)
			}
			if got := fold(star.Rows); got != want {
				t.Errorf("SELECT *%s folds to %+v, join/nested to %+v", tail, got, want)
			}
			last := from.tables[len(from.tables)-1]
			for _, sel := range []struct {
				sql  string
				want uint64
			}{
				{"COUNT(*)", 0},
				{"SUM(a.k)", want.sum},
				{"MIN(b.k)", want.min},
				{"MAX(" + last + ".k)", want.max},
			} {
				sql := "SELECT " + sel.sql + tail
				res, err := e.Execute(sql)
				if err != nil {
					t.Errorf("%s: %v", sql, err)
					continue
				}
				if res.Count != want.count {
					t.Errorf("%s: count = %d, want %d", sql, res.Count, want.count)
				}
				if sel.sql != "COUNT(*)" && (res.AggValue == nil || *res.AggValue != sel.want) {
					t.Errorf("%s: aggregate = %v, want %d", sql, res.AggValue, sel.want)
				}
				if res.Rows != nil {
					t.Errorf("%s: materialized rows", sql)
				}
			}
		}
	}
}
