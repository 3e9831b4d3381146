package query

import (
	"bytes"
	"slices"
	"testing"

	"cyclojoin/internal/relation"
)

func TestParseOrderByLimit(t *testing.T) {
	st, err := Parse("SELECT * FROM r ORDER BY r.k DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if st.OrderByTable != "r" || st.OrderByCol != "k" || !st.OrderDesc || st.Limit != 10 {
		t.Errorf("statement = %+v", st)
	}
	st, err = Parse("SELECT * FROM r ORDER BY r.k ASC")
	if err != nil {
		t.Fatal(err)
	}
	if st.OrderDesc || st.Limit != -1 {
		t.Errorf("statement = %+v", st)
	}
	st, err = Parse("SELECT * FROM r LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if st.Limit != 3 || st.OrderByTable != "" {
		t.Errorf("statement = %+v", st)
	}
	bad := []string{
		"SELECT * FROM r ORDER r.k",
		"SELECT * FROM r ORDER BY",
		"SELECT * FROM r LIMIT",
		"SELECT * FROM r LIMIT x",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): want error", q)
		}
	}
}

func TestOrderByAscending(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute("SELECT * FROM nums WHERE nums.id < 10 ORDER BY nums.id ASC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 10 {
		t.Fatalf("rows = %d", res.Rows.Len())
	}
	for i := 1; i < res.Rows.Len(); i++ {
		if res.Rows.Key(i) < res.Rows.Key(i-1) {
			t.Fatal("not ascending")
		}
	}
}

func TestOrderByDescendingWithLimit(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute("SELECT * FROM nums ORDER BY nums.id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 3 || res.Count != 3 {
		t.Fatalf("rows = %d count = %d", res.Rows.Len(), res.Count)
	}
	want := []uint64{99, 98, 97}
	for i, k := range want {
		if res.Rows.Key(i) != k {
			t.Errorf("row %d = %d, want %d", i, res.Rows.Key(i), k)
		}
	}
}

func TestOrderByOverJoin(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute(
		"SELECT * FROM nums JOIN evens ON nums.id = evens.id ORDER BY evens.id DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 2 {
		t.Fatalf("rows = %d", res.Rows.Len())
	}
	if res.Rows.Key(0) != 98 || res.Rows.Key(1) != 96 {
		t.Errorf("keys = %d, %d, want 98, 96", res.Rows.Key(0), res.Rows.Key(1))
	}
}

func TestLimitLargerThanResult(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute("SELECT * FROM nums WHERE nums.id < 5 LIMIT 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 5 {
		t.Errorf("rows = %d", res.Rows.Len())
	}
}

func TestOrderByRejectedForAggregates(t *testing.T) {
	e := newEngine(t, fixture(t))
	bad := []string{
		"SELECT COUNT(*) FROM nums ORDER BY nums.id",
		"SELECT SUM(nums.id) FROM nums LIMIT 3",
	}
	for _, q := range bad {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("Execute(%q): want error", q)
		}
	}
}

func TestOrderByUnknownColumnRejected(t *testing.T) {
	e := newEngine(t, fixture(t))
	if _, err := e.Execute("SELECT * FROM nums ORDER BY nums.other"); err == nil {
		t.Error("unknown ORDER BY column: want error")
	}
	if _, err := e.Execute("SELECT * FROM nums ORDER BY evens.id"); err == nil {
		t.Error("ORDER BY table outside FROM: want error")
	}
}

func TestReservedWordsRejectedAsIdentifiers(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM order",
		"SELECT * FROM r JOIN limit ON r.k = limit.k",
		"SELECT * FROM r WHERE sum.k < 3",
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): want error", q)
		}
	}
}

// TestOrderByKeepsTiesInInputOrder pins ORDER BY's order on equal keys:
// ascending keeps tuples with one key in the order the result had them, and
// DESC is exactly that order reversed. LIMIT then takes a prefix.
func TestOrderByKeepsTiesInInputOrder(t *testing.T) {
	keys := []uint64{5, 3, 5, 1, 3, 5, 0, 3}
	pay := make([]byte, len(keys))
	for i := range pay {
		pay[i] = byte(i)
	}
	in, err := relation.Wrap(relation.Schema{Name: "t", PayloadWidth: 1}, keys, pay)
	if err != nil {
		t.Fatal(err)
	}
	asc := []byte{6, 3, 1, 4, 7, 0, 2, 5}
	for _, tt := range []struct {
		desc  bool
		limit int
		want  []byte
	}{
		{false, -1, asc},
		{true, -1, []byte{5, 2, 0, 7, 4, 1, 3, 6}},
		{false, 3, asc[:3]},
		{true, 4, []byte{5, 2, 0, 7}},
	} {
		out, err := shapeOutput(in, &Statement{OrderByTable: "t", OrderByCol: "k", OrderDesc: tt.desc, Limit: tt.limit})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.PayloadColumn(); !bytes.Equal(got, tt.want) {
			t.Errorf("desc=%v limit=%d: rows %v, want %v", tt.desc, tt.limit, got, tt.want)
		}
		for i, row := range tt.want {
			if out.Key(i) != keys[row] {
				t.Errorf("desc=%v limit=%d: row %d has key %d, want %d", tt.desc, tt.limit, i, out.Key(i), keys[row])
			}
		}
	}
	if !slices.Equal(in.Keys(), []uint64{5, 3, 5, 1, 3, 5, 0, 3}) {
		t.Error("ORDER BY changed its input")
	}
}
