package query

import (
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// fixture builds a catalog with three small relations whose join sizes are
// easy to reason about:
//
//	nums:  keys 0..99, one each
//	evens: keys 0,2,..,198, one each (overlap with nums: 0..98 even = 50)
//	dups:  keys 0..9, ten copies each
func fixture(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	nums := workload.Sequential("nums", 100, 2)
	evens := relation.New(relation.Schema{Name: "evens", PayloadWidth: 2}, 100)
	for i := 0; i < 100; i++ {
		if err := evens.Append(uint64(2*i), []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	dups := relation.New(relation.Schema{Name: "dups", PayloadWidth: 2}, 100)
	for i := 0; i < 100; i++ {
		if err := dups.Append(uint64(i%10), []byte{3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	for _, reg := range []struct {
		name, key string
		rel       *relation.Relation
	}{
		{"nums", "id", nums},
		{"evens", "id", evens},
		{"dups", "id", dups},
	} {
		if err := cat.Register(reg.name, reg.key, reg.rel); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// newEngine returns a three-host engine over cat that runs every statement
// three times, cold and warm among them (testEngine), and is closed when the
// test ends.
func newEngine(t *testing.T, cat *Catalog) *testEngine {
	t.Helper()
	e, err := NewEngine(cat, 3, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return &testEngine{Engine: e, t: t}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, 3, join.Options{}); err == nil {
		t.Error("nil catalog: want error")
	}
	if _, err := NewEngine(NewCatalog(), 0, join.Options{}); err == nil {
		t.Error("zero nodes: want error")
	}
}

func TestCatalogRegisterValidation(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register("", "k", workload.Sequential("x", 1, 0)); err == nil {
		t.Error("empty name: want error")
	}
	if err := cat.Register("x", "k", nil); err == nil {
		t.Error("nil relation: want error")
	}
}

func TestSingleTableCount(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute("SELECT COUNT(*) FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 {
		t.Errorf("count = %d, want 100", res.Count)
	}
	if res.Rows != nil {
		t.Error("COUNT(*) must not materialize")
	}
}

func TestSingleTableFilter(t *testing.T) {
	e := newEngine(t, fixture(t))
	tests := []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM nums WHERE nums.id < 10", 10},
		{"SELECT COUNT(*) FROM nums WHERE nums.id >= 90", 10},
		{"SELECT COUNT(*) FROM nums WHERE nums.id BETWEEN 10 AND 19", 10},
		{"SELECT COUNT(*) FROM nums WHERE nums.id = 42", 1},
		{"SELECT COUNT(*) FROM nums WHERE nums.id < 50 AND nums.id >= 40", 10},
		{"SELECT COUNT(*) FROM dups WHERE dups.id = 3", 10},
	}
	for _, tt := range tests {
		res, err := e.Execute(tt.sql)
		if err != nil {
			t.Errorf("%s: %v", tt.sql, err)
			continue
		}
		if res.Count != tt.want {
			t.Errorf("%s: count = %d, want %d", tt.sql, res.Count, tt.want)
		}
	}
}

func TestSelectStarMaterializes(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute("SELECT * FROM nums WHERE nums.id < 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil || res.Rows.Len() != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTwoWayJoin(t *testing.T) {
	e := newEngine(t, fixture(t))
	// nums ⋈ evens on id: even keys 0..98 → 50 matches.
	res, err := e.Execute("SELECT COUNT(*) FROM nums JOIN evens ON nums.id = evens.id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 50 {
		t.Errorf("count = %d, want 50", res.Count)
	}
}

func TestTwoWayJoinWithDuplicates(t *testing.T) {
	e := newEngine(t, fixture(t))
	// nums(0..99) ⋈ dups(0..9 ×10): 10 keys × 10 copies = 100.
	res, err := e.Execute("SELECT COUNT(*) FROM nums JOIN dups ON nums.id = dups.id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 {
		t.Errorf("count = %d, want 100", res.Count)
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := newEngine(t, fixture(t))
	// (nums ⋈ evens) ⋈ dups: even keys < 10 present in dups: 0,2,4,6,8 →
	// 5 keys × 10 duplicates = 50.
	res, err := e.Execute(
		"SELECT COUNT(*) FROM nums JOIN evens ON nums.id = evens.id JOIN dups ON evens.id = dups.id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 50 {
		t.Errorf("count = %d, want 50", res.Count)
	}
}

func TestJoinWithFilterPushdown(t *testing.T) {
	e := newEngine(t, fixture(t))
	// dups.id in {0..4} → 5 keys × 10 copies joined with nums → 50.
	res, err := e.Execute(
		"SELECT COUNT(*) FROM nums JOIN dups ON nums.id = dups.id WHERE dups.id < 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 50 {
		t.Errorf("count = %d, want 50", res.Count)
	}
}

func TestSelectStarJoinPayloadLayout(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute("SELECT * FROM nums JOIN evens ON nums.id = evens.id WHERE nums.id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Rows.Len())
	}
	if res.Rows.Key(0) != 4 {
		t.Errorf("key = %d, want 4", res.Rows.Key(0))
	}
	// Payload: nums payload (2) + embedded key (8) + evens payload (2).
	if w := res.Rows.Schema().PayloadWidth; w != 12 {
		t.Errorf("output payload width = %d, want 12", w)
	}
}

func TestSemanticErrors(t *testing.T) {
	e := newEngine(t, fixture(t))
	bad := []string{
		"SELECT COUNT(*) FROM missing",
		"SELECT COUNT(*) FROM nums JOIN nums ON nums.id = nums.id",
		"SELECT COUNT(*) FROM nums JOIN evens ON nums.wrong = evens.id",
		"SELECT COUNT(*) FROM nums JOIN evens ON nums.id = evens.wrong",
		"SELECT COUNT(*) FROM nums JOIN evens ON nums.id = dups.id",
		"SELECT COUNT(*) FROM nums WHERE evens.id < 5",
		"SELECT COUNT(*) FROM nums WHERE nums.other < 5",
	}
	for _, q := range bad {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("Execute(%q): want error", q)
		}
	}
}

func TestEmptyJoinResult(t *testing.T) {
	e := newEngine(t, fixture(t))
	res, err := e.Execute(
		"SELECT COUNT(*) FROM nums JOIN evens ON nums.id = evens.id WHERE evens.id > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Errorf("count = %d, want 0", res.Count)
	}
}
