package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 10}
	for _, tt := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}, {0.875, 7}} {
		if got := quantile(sorted, tt.q); got != tt.want {
			t.Errorf("quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := summary(quartiles([]float64{3, 1, 2})); got != "2 [1.5, 2.5]" {
		t.Errorf("summary = %q", got)
	}
}

const countThree = `goos: linux
BenchmarkSortMergeSetup-2   	       4	 300 ns/op	  40.00 MB/s	      6 allocs/op
BenchmarkSortMergeSetup-2   	       4	 100 ns/op	  42.00 MB/s	      6 allocs/op
BenchmarkSortMergeSetup-2   	       4	 200 ns/op	  41.00 MB/s	      7 allocs/op
BenchmarkEncode-2           	 1000000	  37 ns/op	       0 allocs/op
PASS
`

// TestFoldRepeatedLines: every line of a benchmark is one reading, in the
// order printed, and a row folds its readings to median and quartiles.
func TestFoldRepeatedLines(t *testing.T) {
	got := make(samples)
	if err := parseBench(strings.NewReader(countThree), got); err != nil {
		t.Fatal(err)
	}
	setup := row{"BenchmarkSortMergeSetup", "ns/op", false}
	if want := []float64{300, 100, 200}; !reflect.DeepEqual(got[setup], want) {
		t.Errorf("ns/op readings = %v, want %v", got[setup], want)
	}
	if want := []float64{6, 6, 7}; !reflect.DeepEqual(got[row{"BenchmarkSortMergeSetup", "allocs/op", false}], want) {
		t.Errorf("allocs/op readings = %v, want %v", got[row{"BenchmarkSortMergeSetup", "allocs/op", false}], want)
	}
	if got := quartiles(got[setup]); got != [3]float64{200, 150, 250} {
		t.Errorf("ns/op quartiles = %v, want [200 150 250]", got)
	}
	if got := got[row{"BenchmarkEncode", "ns/op", false}]; len(got) != 1 || got[0] != 37 {
		t.Errorf("single-line ns/op = %v, want [37]", got)
	}
	if got := quartiles([]float64{4, 1, 3, 2})[0]; got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if err := parseBench(strings.NewReader("BenchmarkX-2 4 fast ns/op\n"), got); err == nil {
		t.Error("a non-numeric reading was accepted")
	}
}

// TestDirection: MB/s is better higher; ns/op, B/op and custom …/op units
// are better lower. A tie is nobody's win, and a row some run did not
// report is left out.
func TestDirection(t *testing.T) {
	base := samples{}
	change := samples{}
	out := "BenchmarkA-4 10 100 ns/op 50.0 MB/s 64 B/op 2 allocs/op 7.5 ns/probe\n"
	in := "BenchmarkA-4 10 90 ns/op 60.0 MB/s 64 B/op 3 allocs/op 7.0 ns/probe\n"
	for _, run := range []struct {
		s    samples
		text string
	}{{base, out}, {change, in}} {
		if err := parseBench(strings.NewReader(run.text), run.s); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]struct {
		higher bool
		wins   int
	}{"ns/op": {false, 1}, "MB/s": {true, 1}, "B/op": {false, 0}, "allocs/op": {false, 0}, "ns/probe": {false, 1}}
	var rows []row
	for rw := range base {
		rows = append(rows, rw)
		if w := want[rw.unit]; rw.higher != w.higher {
			t.Errorf("%s: higher is better = %v, want %v", rw.unit, rw.higher, w.higher)
		}
	}
	table := tabulate(rows, [2]samples{base, change}, 1)
	for unit, w := range want {
		if res, ok := table["BenchmarkA"][unit]; !ok || res.Wins != w.wins {
			t.Errorf("%s: wins %d (ok %v), want %d", unit, res.Wins, ok, w.wins)
		}
	}
	if table := tabulate(rows, [2]samples{base, change}, 2); len(table) != 0 {
		t.Errorf("rows read in one pair of two were tabulated: %v", table)
	}
}

func TestPairOrder(t *testing.T) {
	var order []int
	run := 0
	got, err := runPairs(3, func(side int, into samples) (string, error) {
		order = append(order, side)
		into[row{name: "run"}] = append(into[row{name: "run"}], float64(run))
		run++
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 0, 0, 1}; !reflect.DeepEqual(order, want) {
		t.Errorf("side order = %v, want %v", order, want)
	}
	if want := []float64{0, 3, 4}; !reflect.DeepEqual(got[0][row{name: "run"}], want) {
		t.Errorf("base runs = %v, want %v", got[0][row{name: "run"}], want)
	}
	if want := []float64{1, 2, 5}; !reflect.DeepEqual(got[1][row{name: "run"}], want) {
		t.Errorf("change runs = %v, want %v", got[1][row{name: "run"}], want)
	}
}

// TestLedgerRoundTrip: a new ledger replaces the old one's rows and labels
// and keeps its description.
func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	first := ledger{Description: "what the rows measure", Command: "one", Pairs: 10,
		Rows: map[string]map[string]result{"BenchmarkA": {"ns/op": {Base: [3]float64{3, 2, 4}, Change: [3]float64{3, 1, 5}, Wins: 4}}}}
	if err := writeLedger(path, first); err != nil {
		t.Fatal(err)
	}
	second := ledger{Command: "two", Base: revision{"c3f1ff3", "2026-10-19"}, Change: revision{"abc1234", "2026-10-19"}, Pairs: 10,
		Rows: map[string]map[string]result{"BenchmarkB": {"MB/s": {Base: [3]float64{1, 1, 1}, Change: [3]float64{2, 2, 2}, Wins: 10}}}}
	if err := writeLedger(path, second); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ledger
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	second.Description = first.Description
	if !reflect.DeepEqual(back, second) {
		t.Errorf("read back %+v, want %+v", back, second)
	}
}

func TestDirtyLabelRefused(t *testing.T) {
	if err := checkLabel("e414b27-dirty"); err == nil {
		t.Error("dirty label accepted")
	}
	if err := checkLabel("e414b27"); err != nil {
		t.Errorf("clean label: %v", err)
	}
}
