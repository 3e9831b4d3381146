package query

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

func TestChooseShape(t *testing.T) {
	rel := func(n int) *relation.Relation { return workload.Sequential("t", n, 0) }
	for _, tt := range []struct {
		nodes  int
		tables []int
		want   shape
	}{
		{4, []int{200_000, 200_000, 200_000}, shape{byKey: true, saves: 600_000, moves: 400_000}},
		{4, []int{2_000, 1_000_000}, shape{byKey: false, saves: 6_000, moves: 1_000_000}},
		{3, []int{100, 100, 100}, shape{byKey: true, saves: 200, moves: 200}}, // a tie is placed by key
		{3, []int{100, 100, 101}, shape{byKey: false, saves: 200, moves: 201}},
		{1, []int{100, 10}, shape{byKey: false, saves: 0, moves: 10}}, // one host has nothing to save
	} {
		filtered := make([]*relation.Relation, len(tt.tables))
		for i, n := range tt.tables {
			filtered[i] = rel(n)
		}
		if got := chooseShape(tt.nodes, filtered); got != tt.want {
			t.Errorf("chooseShape(%d nodes, %v rows) = %+v, want %+v", tt.nodes, tt.tables, got, tt.want)
		}
	}
}

// TestBothShapesMatchNested runs two- to five-table statements through the
// engine on one to five hosts with one and four probe workers, led once by a
// large table (placed by key: one revolution) and once by a tiny one (placed
// by position: a revolution per join), with and without WHERE, and compares
// COUNT(*), SUM, MIN, MAX and the SELECT * rows — payload bytes included —
// with a left-deep sequence of join/nested runs. Which shape ran is read off
// query_join_steps_total and must be the one chooseShape names.
func TestBothShapesMatchNested(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const domain = 60
	zipf, err := workload.Generate(workload.Spec{Name: "s2", Tuples: 90, KeyDomain: domain, Zipf: 0.9, Seed: 4, PayloadWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*relation.Relation{
		"big":  jointest.RandomRelation(rng, "big", 500, domain, 4),
		"tiny": jointest.RandomRelation(rng, "tiny", 12, domain, 5),
		"s1":   jointest.RandomRelation(rng, "s1", 100, domain, 2),
		"s2":   zipf,
		"s3":   jointest.RandomRelation(rng, "s3", 80, domain, 0),
		"s4":   jointest.RandomRelation(rng, "s4", 70, domain, 6),
	}
	cat := NewCatalog()
	for name, rel := range tables {
		if err := cat.Register(name, "k", rel); err != nil {
			t.Fatal(err)
		}
	}
	wheres := []struct {
		sql  string
		keep func(table string, k uint64) bool
	}{
		{"", func(string, uint64) bool { return true }},
		{" WHERE s1.k >= 5 AND %s.k < 50", func(table string, k uint64) bool {
			switch table {
			case "s1":
				return k >= 5
			case "big", "tiny":
				return k < 50
			}
			return true
		}},
	}
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

	// ran[byKey][tables] counts the statements that took each shape.
	ran := map[bool]map[int]int{true: {}, false: {}}
	for _, nodes := range []int{1, 2, 3, 4, 5} {
		for _, workers := range []int{1, 4} {
			e, err := NewEngine(cat, nodes, join.Options{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, lead := range []string{"big", "tiny"} {
				for n := 2; n <= 5; n++ {
					names := append([]string{lead}, "s1", "s2", "s3", "s4")[:n]
					from := " FROM " + names[0]
					for i := 1; i < n; i++ {
						from += fmt.Sprintf(" JOIN %s ON %s.k = %s.k", names[i], names[i-1], names[i])
					}
					for _, wh := range wheres {
						tail := from
						if wh.sql != "" {
							tail += fmt.Sprintf(wh.sql, lead)
						}
						label := fmt.Sprintf("%d nodes, %d workers:%s", nodes, workers, tail)

						filtered := make([]*relation.Relation, n)
						var ref *relation.Relation
						for i, name := range names {
							in := relation.New(tables[name].Schema(), 0)
							for row := 0; row < tables[name].Len(); row++ {
								if wh.keep(name, tables[name].Key(row)) {
									if err := in.AppendFrom(tables[name], row); err != nil {
										t.Fatal(err)
									}
								}
							}
							filtered[i] = in
							if ref == nil {
								ref = in
							} else {
								ref = nestedJoin(t, ref, in)
							}
						}
						want := fold(ref)
						if want.count == 0 {
							t.Fatalf("%s: fixture drifted, the join is empty", label)
						}
						wantSteps := int64(n - 1)
						sh := chooseShape(nodes, filtered)
						if sh.byKey {
							wantSteps = 1
						}
						ran[sh.byKey][n]++

						steps := mJoinSteps.Value()
						star, err := e.Execute("SELECT *" + tail)
						if err != nil {
							t.Fatalf("SELECT *%s: %v", label, err)
						}
						if got := mJoinSteps.Value() - steps; got != wantSteps {
							t.Errorf("SELECT *%s: %d join steps, want %d (%+v)", label, got, wantSteps, sh)
						}
						if !maps.Equal(jointest.RowCounts(star.Rows), jointest.RowCounts(ref)) {
							t.Errorf("SELECT *%s: rows differ from join/nested (%d rows, want %d)", label, star.Count, want.count)
						}
						for _, sel := range []struct {
							sql  string
							want uint64
						}{
							{"COUNT(*)", 0},
							{"SUM(" + names[0] + ".k)", want.sum},
							{"MIN(" + names[1] + ".k)", want.min},
							{"MAX(" + names[n-1] + ".k)", want.max},
						} {
							res, err := e.Execute("SELECT " + sel.sql + tail)
							if err != nil {
								t.Errorf("SELECT %s%s: %v", sel.sql, label, err)
								continue
							}
							if res.Count != want.count {
								t.Errorf("SELECT %s%s: count = %d, want %d", sel.sql, label, res.Count, want.count)
							}
							if sel.sql != "COUNT(*)" && (res.AggValue == nil || *res.AggValue != sel.want) {
								t.Errorf("SELECT %s%s: aggregate = %v, want %d", sel.sql, label, res.AggValue, sel.want)
							}
						}
					}
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := 2; n <= 5; n++ {
		if ran[true][n] == 0 || ran[false][n] == 0 {
			t.Errorf("%d-table statements: %d ran placed by key, %d by position; the matrix must cover both",
				n, ran[true][n], ran[false][n])
		}
	}
}

// TestKeyPlacedEdges: statements that take the one-revolution shape with a
// stationary table filtered down to nothing, and with every key of every
// table owned by one host.
func TestKeyPlacedEdges(t *testing.T) {
	cat := fixture(t)
	e := newEngine(t, cat)
	for _, tt := range []struct {
		sql   string
		count int64
	}{
		// evens is empty after the filter: moves 100, saves 200.
		{"SELECT COUNT(*) FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id WHERE evens.id > 1000", 0},
		{"SELECT * FROM nums JOIN evens ON nums.id = evens.id WHERE evens.id > 1000", 0},
		// One key survives everywhere, so one host owns all there is.
		{"SELECT COUNT(*) FROM dups JOIN evens ON dups.id = evens.id JOIN nums ON evens.id = nums.id " +
			"WHERE nums.id = 4 AND evens.id = 4 AND dups.id = 4", 10},
	} {
		if out, err := e.Explain(tt.sql); err != nil || !strings.Contains(out, "placed by key hash") {
			t.Fatalf("%s: fixture drifted, not placed by key (err %v):\n%s", tt.sql, err, out)
		}
		res, err := e.Execute(tt.sql)
		if err != nil {
			t.Fatalf("%s: %v", tt.sql, err)
		}
		if res.Count != tt.count {
			t.Errorf("%s: count = %d, want %d", tt.sql, res.Count, tt.count)
		}
	}
}
