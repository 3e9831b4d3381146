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

func TestExplainJoinChain(t *testing.T) {
	e := newEngine(t, fixture(t))
	out, err := e.Explain(
		"SELECT * FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id " +
			"ORDER BY nums.id DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ring: 3 hosts",
		"scan nums: 100 rows",
		"cyclo-join 1: rotate 100 rows against evens (100 rows), ships tuples (10 B/tuple)",
		"cyclo-join 2:",
		"ships tuples (20 B/tuple)", // the intermediate: both sides' keys and payloads
		"plan ",
		"(rotate",
		"est. output",
		"ORDER BY nums.id DESC",
		"LIMIT 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
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

// TestExplainShips: EXPLAIN says per step what the revolution will carry. An
// aggregate binds key columns only; its intermediate is rKey ‖ sKey, which
// the last step ships whole to SUM's collector and as keys to COUNT(*)'s
// counters.
func TestExplainShips(t *testing.T) {
	e := newEngine(t, fixture(t))
	const from = " FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id"
	for _, tt := range []struct {
		sel   string
		steps [2]string
	}{
		{"SELECT COUNT(*)", [2]string{"ships keys (8 B/tuple)", "ships keys (8 B/tuple)"}},
		{"SELECT SUM(nums.id)", [2]string{"ships keys (8 B/tuple)", "ships tuples (16 B/tuple)"}},
		{"SELECT *", [2]string{"ships tuples (10 B/tuple)", "ships tuples (20 B/tuple)"}},
	} {
		out, err := e.Explain(tt.sel + from)
		if err != nil {
			t.Fatal(err)
		}
		var steps []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "cyclo-join ") {
				steps = append(steps, line)
			}
		}
		if len(steps) != 2 {
			t.Fatalf("%s: %d cyclo-join lines, want 2:\n%s", tt.sel, len(steps), out)
		}
		for i, want := range tt.steps {
			if !strings.Contains(steps[i], want) {
				t.Errorf("%s, step %d: want %q in %q", tt.sel, i+1, want, steps[i])
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
