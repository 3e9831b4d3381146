package lint_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cyclojoin/internal/lint"
	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/load"
)

// loadPackages type-checks the module's packages matching patterns, with
// their tests, as cyclolint does: overlay (file name → source) replaces
// files' contents in memory.
func loadPackages(t *testing.T, overlay map[string][]byte, patterns ...string) []*load.Package {
	t.Helper()
	pkgs, err := load.Packages(moduleRoot(t), overlay, patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	return pkgs
}

// moduleRoot is the module's directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// analyze runs the analyzers over pkgs as cyclolint does, threading
// facts in dependency order, and returns the rendered diagnostics and
// the fact store.
func analyze(t *testing.T, pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]string, analysis.Facts) {
	t.Helper()
	var lines []string
	facts := make(analysis.Facts)
	for _, pkg := range pkgs {
		findings, err := analysis.CheckPackage(analyzers, pkg, facts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			lines = append(lines, fmt.Sprintf("%s: %s: %s", pkg.Fset.Position(f.Pos), f.Analyzer, f.Message))
		}
	}
	return lines, facts
}

// transcript runs the analyzers over every package in the module and
// renders diagnostics plus exported fact bytes into one canonical string.
func transcript(t *testing.T, analyzers []*analysis.Analyzer) string {
	t.Helper()
	lines, facts := analyze(t, loadPackages(t, nil, "./..."), analyzers)
	var factLines []string
	for name, byPkg := range facts {
		for path, data := range byPkg {
			factLines = append(factLines, fmt.Sprintf("fact %s %s %s", name, path, data))
		}
	}
	sort.Strings(factLines)
	return strings.Join(lines, "\n") + "\n---\n" + strings.Join(factLines, "\n")
}

// TestProtocolAnalyzersDeterministic runs the whole suite twice over the
// whole module and requires byte-identical diagnostics and facts.
// Map-iteration nondeterminism in the fixpoints or encoders would flap
// CI; this runs under `make race` for the schedule jitter.
func TestProtocolAnalyzersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	first := transcript(t, lint.Analyzers())
	second := transcript(t, lint.Analyzers())
	if first != second {
		t.Errorf("analyzer output is nondeterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}
