package main

import (
	"bufio"
	"strings"
	"testing"
)

const countThree = `goos: linux
BenchmarkSortMergeSetup-2   	       4	 300 ns/op	  40.00 MB/s	      6 allocs/op
BenchmarkSortMergeSetup-2   	       4	 100 ns/op	  42.00 MB/s	      6 allocs/op
BenchmarkSortMergeSetup-2   	       4	 200 ns/op	  41.00 MB/s	      7 allocs/op
BenchmarkEncode-2           	 1000000	  37 ns/op	       0 allocs/op
PASS
`

// TestFoldRepeatedLines: -count N lines of one benchmark become median and
// min/max rather than the last line; a single line stays as it is, with no
// spread.
func TestFoldRepeatedLines(t *testing.T) {
	samples, err := parseBench(bufio.NewScanner(strings.NewReader(countThree)))
	if err != nil {
		t.Fatal(err)
	}
	results, spreads := fold(samples)
	if got := results["BenchmarkSortMergeSetup"]["ns/op"]; got != 200 {
		t.Errorf("median ns/op = %v, want 200", got)
	}
	if got, want := spreads["BenchmarkSortMergeSetup"]["ns/op"], (spread{Min: 100, Max: 300, N: 3}); got != want {
		t.Errorf("ns/op spread = %+v, want %+v", got, want)
	}
	if got := spreads["BenchmarkSortMergeSetup"]["allocs/op"].Max; got != 7 {
		t.Errorf("max allocs/op = %v, want 7", got)
	}
	if got := results["BenchmarkEncode"]["ns/op"]; got != 37 {
		t.Errorf("single-sample ns/op = %v, want 37", got)
	}
	if _, ok := spreads["BenchmarkEncode"]; ok {
		t.Error("single-sample benchmark must record no spread")
	}

	even, _ := fold(map[string]map[string][]float64{"B": {"ns/op": {4, 1, 3, 2}}})
	if got := even["B"]["ns/op"]; got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestDirtyLabelRefused(t *testing.T) {
	if err := checkLabel("e414b27-dirty", false); err == nil {
		t.Error("dirty label accepted without -allow-dirty")
	}
	if err := checkLabel("e414b27-dirty", true); err != nil {
		t.Errorf("dirty label with -allow-dirty: %v", err)
	}
	if err := checkLabel("e414b27", false); err != nil {
		t.Errorf("clean label: %v", err)
	}
}
