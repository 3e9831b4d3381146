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

// loadModule type-checks every package in the module, in dependency
// order.
func loadModule(t *testing.T) []*load.Package {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Packages(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return pkgs
}

// analyze runs the analyzers over pkgs, threading facts in dependency
// order, and returns the rendered diagnostics and each analyzer's
// exported fact blobs by package path.
func analyze(t *testing.T, pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]string, map[string]map[string][]byte) {
	t.Helper()
	var lines []string
	facts := make(map[string]map[string][]byte)
	for _, pkg := range pkgs {
		pkgPath := pkg.Types.Path()
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.ReadFacts = func(path string) []byte { return facts[a.Name][path] }
			pass.ExportFacts = func(data []byte) {
				if facts[a.Name] == nil {
					facts[a.Name] = make(map[string][]byte)
				}
				facts[a.Name][pkgPath] = data
			}
			pass.Report = func(d analysis.Diagnostic) {
				lines = append(lines, fmt.Sprintf("%s: %s: %s", pkg.Fset.Position(d.Pos), a.Name, d.Message))
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkgPath, err)
			}
		}
	}
	return lines, facts
}

// transcript runs the analyzers over every package in the module and
// renders diagnostics plus exported fact bytes into one canonical string.
func transcript(t *testing.T, analyzers []*analysis.Analyzer) string {
	t.Helper()
	lines, facts := analyze(t, loadModule(t), analyzers)
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
// vet's cache and CI; this runs under `make race` for the schedule
// jitter.
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
