package query

import (
	"strings"
	"testing"
)

func TestExplainSingleTable(t *testing.T) {
	e := newEngine(t, fixture(t))
	out, err := e.Explain("SELECT COUNT(*) FROM nums WHERE nums.id < 10")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan nums: 100 rows, filtered to 10", "COUNT(*)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

// fromThree joins the fixture's three 100-row tables. On newEngine's three
// hosts key placement saves 2·100 probes and moves 200 tuples, so the
// statement runs as one revolution; with nums filtered down to ten rows it
// saves 20 and runs as the left-deep sequence.
const (
	fromThree   = " FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id"
	tenRowsOnly = " WHERE nums.id < 10"
)

func TestExplainJoinChain(t *testing.T) {
	e := newEngine(t, fixture(t))
	const tail = " ORDER BY nums.id DESC LIMIT 5"
	for _, tt := range []struct {
		sql  string
		want []string
	}{
		{"SELECT *" + fromThree + tail, []string{
			"ring: 3 hosts",
			"scan nums: 100 rows",
			"cyclo-join: rotate nums (100 rows) against evens, dups placed by key hash — 1 revolution, " +
				"ships tuples (10 B/tuple), saves 200 probes, moves 200 tuples",
			"probe 1: evens (100 rows), est. output",
			"probe 2: dups (100 rows), est. output",
			"ORDER BY nums.id DESC",
			"LIMIT 5",
		}},
		{"SELECT *" + fromThree + tenRowsOnly + tail, []string{
			"scan nums: 100 rows, filtered to 10",
			"cyclo-join 1: rotate 10 rows against evens (100 rows), ships tuples (10 B/tuple)",
			"cyclo-join 2:",
			"ships tuples (20 B/tuple)", // the intermediate: both sides' keys and payloads
			"plan ",
			"(rotate",
			"est. output",
			"placement: position (20 < 200)",
			"ORDER BY nums.id DESC",
			"LIMIT 5",
		}},
	} {
		out, err := e.Explain(tt.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range tt.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: explain missing %q:\n%s", tt.sql, want, out)
			}
		}
		if strings.Contains(out, "placed by key hash") == strings.Contains(out, "placement: position") {
			t.Errorf("%s: explain must name exactly one shape:\n%s", tt.sql, out)
		}
	}
}

func TestExplainAggregate(t *testing.T) {
	e := newEngine(t, fixture(t))
	out, err := e.Explain("SELECT SUM(nums.id) FROM nums JOIN evens ON nums.id = evens.id")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ships keys (8 B/tuple)", "SUM(nums.id)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

// TestExplainShips: EXPLAIN says per revolution what it will carry. An
// aggregate binds key columns only. Placed by key there is one revolution,
// of the rotating table as bound. Placed by position there are two, and the
// intermediate is rKey ‖ sKey, which the last step ships whole to SUM's
// collector and as keys to COUNT(*)'s counters.
func TestExplainShips(t *testing.T) {
	e := newEngine(t, fixture(t))
	for _, tt := range []struct {
		sql         string
		revolutions []string
	}{
		{"SELECT COUNT(*)" + fromThree, []string{"ships keys (8 B/tuple)"}},
		{"SELECT SUM(nums.id)" + fromThree, []string{"ships keys (8 B/tuple)"}},
		{"SELECT *" + fromThree, []string{"ships tuples (10 B/tuple)"}},
		{"SELECT COUNT(*)" + fromThree + tenRowsOnly, []string{"ships keys (8 B/tuple)", "ships keys (8 B/tuple)"}},
		{"SELECT SUM(nums.id)" + fromThree + tenRowsOnly, []string{"ships keys (8 B/tuple)", "ships tuples (16 B/tuple)"}},
		{"SELECT *" + fromThree + tenRowsOnly, []string{"ships tuples (10 B/tuple)", "ships tuples (20 B/tuple)"}},
	} {
		out, err := e.Explain(tt.sql)
		if err != nil {
			t.Fatal(err)
		}
		var revolutions []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "cyclo-join") {
				revolutions = append(revolutions, line)
			}
		}
		if len(revolutions) != len(tt.revolutions) {
			t.Fatalf("%s: %d cyclo-join lines, want %d:\n%s", tt.sql, len(revolutions), len(tt.revolutions), out)
		}
		for i, want := range tt.revolutions {
			if !strings.Contains(revolutions[i], want) {
				t.Errorf("%s, revolution %d: want %q in %q", tt.sql, i+1, want, revolutions[i])
			}
		}
	}
}

func TestExplainErrors(t *testing.T) {
	e := newEngine(t, fixture(t))
	for _, q := range []string{"nonsense", "SELECT COUNT(*) FROM missing"} {
		if _, err := e.Explain(q); err == nil {
			t.Errorf("Explain(%q): want error", q)
		}
	}
}
