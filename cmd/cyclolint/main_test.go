package main

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixedDiags is a stable diagnostic set exercising sorting and every
// emitter; positions and messages mirror real suite output shapes.
func fixedDiags() []located {
	ds := []located{
		{pos: token.Position{Filename: "internal/ring/node.go", Line: 454, Column: 9}, analyzer: "spscrole", message: "SPSC (cyclojoin/internal/ring.node).procQ push has 2 producer origins: go node.go:454 (at node.go:480), go writemode.go:154 (at writemode.go:200)"},
		{pos: token.Position{Filename: "internal/health/health.go", Line: 353, Column: 2}, analyzer: "frozenpub", message: "snap is written after being atomically published at health.go:350; readers Load without locks — build a fresh object and re-Store it instead"},
		{pos: token.Position{Filename: "internal/ring/node.go", Line: 454, Column: 9}, analyzer: "creditflow", message: "send credit buf (popped at node.go:450) is not returned on this path; the pool loses a send slot until restart"},
		{pos: token.Position{Filename: "internal/ring/node.go", Line: 120, Column: 3}, analyzer: "spanpair", message: "trace span pd (Begin at node.go:110) is still open on this return path; call End before returning or defer it"},
		{pos: token.Position{Filename: "internal/hotset/hotset.go", Line: 88, Column: 2}, analyzer: "shareguard", message: "(cyclojoin/internal/hotset.tracker).epoch has a plain write with no common guard across 2 goroutine origins: entry (write at hotset.go:88), go hotset.go:61 (read at hotset.go:140); no shared lock class, consistent atomic use, or happens-before protects it — serialize the accesses or annotate //cyclolint:sharesafe with the ownership argument"},
		{pos: token.Position{Filename: "internal/ring/node.go", Line: 612, Column: 4}, analyzer: "waitcycle", message: "static wait cycle: go node.go:396 blocked at send of (cyclojoin/internal/ring.node).acks (node.go:612) and go node.go:401 blocked at recv of (cyclojoin/internal/ring.node).data (node.go:733) can each be released only past the other's block — reorder the hand-off, buffer the channel, or annotate //cyclolint:waitsafe with the progress argument"},
	}
	sortLocated(ds)
	return ds
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output differs from golden %s:\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
	}
}

func TestEmitTextGolden(t *testing.T) {
	var buf bytes.Buffer
	emitText(&buf, fixedDiags())
	checkGolden(t, "diags.txt", buf.Bytes())
}

func TestEmitJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	emitJSON(&buf, fixedDiags())
	checkGolden(t, "diags.json", buf.Bytes())
}

// TestEmitSARIFGolden pins the SARIF envelope byte-exactly: the rule
// table is the suite, in suite order.
func TestEmitSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	emitSARIF(&buf, fixedDiags())
	checkGolden(t, "diags.sarif", buf.Bytes())
}

func TestEmitStatsGolden(t *testing.T) {
	analyzers, err := selected("", "")
	if err != nil {
		t.Fatal(err)
	}
	tm := make(timings)
	for i, a := range analyzers {
		tm[a.Name] = time.Duration(i+1) * 10 * time.Millisecond
	}
	var buf bytes.Buffer
	emitStats(&buf, analyzers, tm)
	checkGolden(t, "stats.txt", buf.Bytes())
}

// TestSuiteContainsProtocolAnalyzers guards the registration wiring: the
// concurrency-protocol analyzers must stay in the default suite.
func TestSuiteContainsProtocolAnalyzers(t *testing.T) {
	full, err := selected("", "")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, a := range full {
		names[a.Name] = true
	}
	for _, want := range []string{"spscrole", "frozenpub", "creditflow", "bufown", "spanpair", "shareguard", "waitcycle"} {
		if !names[want] {
			t.Errorf("analyzer %s missing from default suite", want)
		}
	}
}

// TestSelected covers the -only/-skip parsing: exclusive selection,
// removal, rejection of unknown names and of contradictory lists.
func TestSelected(t *testing.T) {
	full, err := selected("", "")
	if err != nil {
		t.Fatal(err)
	}
	onlyTwo, err := selected("shareguard, waitcycle", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyTwo) != 2 || onlyTwo[0].Name != "shareguard" || onlyTwo[1].Name != "waitcycle" {
		t.Errorf("-only shareguard,waitcycle selected %d analyzers", len(onlyTwo))
	}
	skipped, err := selected("", "spscrole,frozenpub")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != len(full)-2 {
		t.Errorf("-skip did not remove exactly the named analyzers")
	}
	if _, err := selected("sharegaurd", ""); err == nil {
		t.Errorf("-only with a misspelled analyzer name did not error")
	}
	if _, err := selected("", "nosuch"); err == nil {
		t.Errorf("-skip with an unknown analyzer name did not error")
	}
	if _, err := selected("waitcycle", "waitcycle"); err == nil {
		t.Errorf("an analyzer in both -only and -skip did not error")
	}
}

func TestBudgetExceeded(t *testing.T) {
	tm := timings{"spscrole": 50 * time.Millisecond, "frozenpub": 70 * time.Millisecond}
	if got := tm.total(); got != 120*time.Millisecond {
		t.Fatalf("total = %v, want 120ms", got)
	}
}

// TestSinglePackageRun pins that a run on one package sees the facts of
// its dependencies in this module: ./... reports nothing in
// internal/ring or its tests, so neither may a run on ./internal/ring/
// alone.
func TestSinglePackageRun(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks and analyzes internal/ring and its dependencies")
	}
	analyzers, err := selected("", "")
	if err != nil {
		t.Fatal(err)
	}
	if code := check(analyzers, []string{"../../internal/ring/"}, outputOptions{}); code != 0 {
		t.Errorf("cyclolint ./internal/ring/ exited %d, want 0 (diagnostics above)", code)
	}
}
