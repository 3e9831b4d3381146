package query

import (
	"maps"
	"strings"
	"sync"
	"testing"

	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// testEngine is an Engine whose Execute runs every statement three times: on
// whatever the statements before it left stationed, cold on an emptied
// store, and warm on what the cold run stationed. The three answers must be
// identical — the store saves work, it never changes a result. Execute
// returns the warm answer.
type testEngine struct {
	*Engine
	t *testing.T
}

func (e *testEngine) Execute(sql string) (*Result, error) {
	e.t.Helper()
	shared, sharedErr := e.Engine.Execute(sql)
	e.mu.Lock()
	clear(e.stationed)
	e.mu.Unlock()
	cold, coldErr := e.Engine.Execute(sql)
	warm, err := e.Engine.Execute(sql)
	for _, run := range []struct {
		name string
		res  *Result
		err  error
	}{{"after earlier statements", shared, sharedErr}, {"cold", cold, coldErr}} {
		switch {
		case (run.err == nil) != (err == nil):
			e.t.Errorf("%s: run %s: err = %v, warm run: err = %v", sql, run.name, run.err, err)
		case err == nil && !sameAnswer(run.res, warm):
			e.t.Errorf("%s: warm answer (%d rows) differs from the run %s (%d rows)", sql, warm.Count, run.name, run.res.Count)
		}
	}
	return warm, err
}

// sameAnswer compares two results as SQL does: counts, aggregate values and
// rows as multisets, payload bytes included.
func sameAnswer(a, b *Result) bool {
	if a.Count != b.Count || (a.AggValue == nil) != (b.AggValue == nil) || (a.Rows == nil) != (b.Rows == nil) {
		return false
	}
	if a.AggValue != nil && *a.AggValue != *b.AggValue {
		return false
	}
	return a.Rows == nil || maps.Equal(jointest.RowCounts(a.Rows), jointest.RowCounts(b.Rows))
}

// keyStations is core's count of setup phases that placed stationary data
// by key hash.
var keyStations = metrics.Default().Counter("core_stations_total", "", "placement", "key")

// deltas reads the counters that say what a statement stationed.
type deltas struct{ reused, stationed, keyStations int64 }

func readDeltas() deltas {
	return deltas{mReused.Value(), mStationed.Value(), keyStations.Value()}
}

func (d deltas) since(before deltas) deltas {
	return deltas{d.reused - before.reused, d.stationed - before.stationed, d.keyStations - before.keyStations}
}

// TestReregisteredTableRestationsAlone: a warm statement stations nothing; a
// table registered again between two reads is seen by the second, which
// stations that table and reuses the others; another statement over the
// untouched tables reuses them too, and the store keeps one entry per table
// and way of reading it.
func TestReregisteredTableRestationsAlone(t *testing.T) {
	cat := fixture(t)
	e := newEngine(t, cat).Engine // one run per statement: the deltas count it
	run := func(sql string, count int64, want deltas) {
		t.Helper()
		before := readDeltas()
		res, err := e.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != count {
			t.Errorf("%s: count = %d, want %d", sql, res.Count, count)
		}
		if got := readDeltas().since(before); got != want {
			t.Errorf("%s: {reused, stationed, core key stations} rose by %+v, want %+v", sql, got, want)
		}
	}

	run(threeWay, 50, deltas{reused: 0, stationed: 3, keyStations: 2}) // nums rotates against evens and dups
	run(threeWay, 50, deltas{reused: 3})

	// evens becomes keys 0..99: every nums key matches, so every dups key
	// 0..9 does, ten copies each.
	if err := cat.Register("evens", "id", workload.Sequential("evens", 100, 2)); err != nil {
		t.Fatal(err)
	}
	run(threeWay, 100, deltas{reused: 2, stationed: 1, keyStations: 1})
	run(threeWay, 100, deltas{reused: 3})
	run("SELECT COUNT(*) FROM nums JOIN dups ON nums.id = dups.id", 100, deltas{reused: 2})

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.stationed) != 3 {
		t.Errorf("the store holds %d entries, want 3: nums rotating, evens and dups stationary", len(e.stationed))
	}
	evens, err := cat.lookup("evens")
	if err != nil {
		t.Fatal(err)
	}
	for s, ent := range e.stationed {
		if s.table == "evens" && ent.version != evens.version {
			t.Errorf("evens is filed at version %d, registered at %d", ent.version, evens.version)
		}
	}
}

// TestFallbackShapeStoresBaseTables: the left-deep shape files its first
// rotating table and every stationary table, placed where they lie; the
// intermediate, and a filtered table, are stationed anew on every run.
func TestFallbackShapeStoresBaseTables(t *testing.T) {
	cat := fixture(t)
	few := workload.Sequential("few", 5, 2)
	if err := cat.Register("few", "id", few); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, cat).Engine
	positionStations := metrics.Default().Counter("core_stations_total", "", "placement", "position")
	for _, tt := range []struct {
		sql             string
		count           int64
		cold, warm      deltas
		coldPlaced, pos int64
	}{
		// Two revolutions: few against evens, the intermediate against dups.
		{"SELECT COUNT(*) FROM few JOIN evens ON few.id = evens.id JOIN dups ON evens.id = dups.id", 30,
			deltas{stationed: 4}, deltas{reused: 3, stationed: 1}, 2, 0},
		// few filtered: it is stationed on every run, evens and dups are not.
		{"SELECT COUNT(*) FROM few JOIN evens ON few.id = evens.id JOIN dups ON evens.id = dups.id WHERE few.id < 3", 20,
			deltas{reused: 2, stationed: 2}, deltas{reused: 2, stationed: 2}, 0, 0},
	} {
		if out, err := e.Explain(tt.sql); err != nil || !strings.Contains(out, "placement: position") {
			t.Fatalf("%s: fixture drifted, not placed by position (err %v):\n%s", tt.sql, err, out)
		}
		for run, want := range []deltas{tt.cold, tt.warm} {
			before, placed := readDeltas(), positionStations.Value()
			res, err := e.Execute(tt.sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != tt.count {
				t.Errorf("%s: count = %d, want %d", tt.sql, res.Count, tt.count)
			}
			got := readDeltas().since(before)
			if got != want {
				t.Errorf("%s, run %d: {reused, stationed, key stations} rose by %+v, want %+v", tt.sql, run+1, got, want)
			}
			wantPlaced := tt.coldPlaced
			if run == 1 {
				wantPlaced = tt.pos
			}
			if got := positionStations.Value() - placed; got != wantPlaced {
				t.Errorf("%s, run %d: %d position-placed setups, want %d", tt.sql, run+1, got, wantPlaced)
			}
		}
	}
}

// TestExplainMarksStationed: EXPLAIN marks the inputs the store holds at
// their current version and counts only the others as moved.
func TestExplainMarksStationed(t *testing.T) {
	cat := fixture(t)
	e := newEngine(t, cat).Engine
	check := func(sql string, want, not []string) {
		t.Helper()
		out, err := e.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: explain missing %q:\n%s", sql, w, out)
			}
		}
		for _, w := range not {
			if strings.Contains(out, w) {
				t.Errorf("%s: explain has %q:\n%s", sql, w, out)
			}
		}
	}

	check(threeWay, []string{"moves 200 tuples"}, []string{"(stationed)"})
	if _, err := e.Execute(threeWay); err != nil {
		t.Fatal(err)
	}
	check(threeWay, []string{
		"rotate nums (100 rows) (stationed) against evens, dups",
		"moves 0 tuples",
		"probe 1: evens (100 rows) (stationed),",
		"probe 2: dups (100 rows) (stationed),",
	}, nil)
	// SELECT * reads every column: another stationed form.
	check("SELECT *"+fromThree, []string{"moves 200 tuples"}, []string{"(stationed)"})

	if err := cat.Register("dups", "id", table(t, cat, "dups")); err != nil {
		t.Fatal(err)
	}
	check(threeWay, []string{"moves 100 tuples", "probe 1: evens (100 rows) (stationed),", "probe 2: dups (100 rows), est."}, nil)

	// The left-deep shape: the filtered rotating table is never stored.
	const fallback = "SELECT COUNT(*)" + fromThree + tenRowsOnly
	if _, err := e.Execute(fallback); err != nil {
		t.Fatal(err)
	}
	check(fallback, []string{
		"cyclo-join 1: rotate 10 rows against evens (100 rows) (stationed),",
		"against dups (100 rows) (stationed),",
	}, []string{"rotate 10 rows (stationed)"})
}

// TestRegisterWhileExecuting re-registers a table while statements read it:
// under the race detector the catalog must be safe to write during Execute,
// and every answer must be the join of one registration or the other.
func TestRegisterWhileExecuting(t *testing.T) {
	cat := fixture(t)
	e := newEngine(t, cat).Engine
	versions := []*relation.Relation{table(t, cat, "evens"), workload.Sequential("evens", 100, 2)}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := cat.Register("evens", "id", versions[i%2]); err != nil {
				t.Error(err)
				return
			}
			_ = cat.Tables()
		}
	}()
	for i := 0; i < 40; i++ {
		res, err := e.Execute(threeWay)
		if err != nil {
			t.Error(err)
			break
		}
		if res.Count != 50 && res.Count != 100 {
			t.Errorf("count = %d, want 50 (the first evens) or 100 (the second)", res.Count)
		}
	}
	close(done)
	wg.Wait()
}
