// Package linttest is cyclolint's golden-test harness, a small analog of
// golang.org/x/tools/go/analysis/analysistest. A test package lives
// under the analyzer's testdata/src/<pkg> directory and marks expected
// diagnostics with trailing comments:
//
//	h.v = v // want `stored in a struct field`
//
// Each `want` carries one or more Go-quoted regular expressions; every
// expectation must be matched by a diagnostic on that line and every
// diagnostic must match an expectation, or the test fails.
//
// Test packages type-check against the real module: imports of
// cyclojoin/... (and the stdlib) resolve through the same export-data
// importer cyclolint uses, so testdata can exercise analyzers against
// the genuine relation.View, trace.Shard and metrics.Registry types.
// Each fixture package runs through analysis.CheckPackage, the step
// cyclolint runs per package.
//
// Two interprocedural features mirror cyclolint:
//
//   - Multi-package fixtures: a testdata package may import another one
//     as "cyclolinttest/<pkg>"; the import resolves to the sibling
//     testdata/src/<pkg> directory, type-checked from source. Run
//     analyzes its packages in the listed order and threads analyzer
//     facts between them, so list dependencies first and summaries cross
//     the package boundary exactly as they do between module packages.
//   - Suggested-fix goldens: RunFix applies every reported fix and
//     compares each rewritten file byte-exactly against its
//     <name>.go.golden sibling.
package linttest

import (
	"bytes"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/load"
)

// testPathPrefix is the synthetic import-path namespace for testdata
// packages.
const testPathPrefix = "cyclolinttest/"

// Run analyzes each testdata/src/<pkg> directory (relative to the
// calling test's working directory) as one package, in the listed order
// with facts threaded between packages, and checks `want` expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	h := newHarness(t)
	for _, pkg := range pkgs {
		diags := h.analyze(t, a, pkg)
		checkExpectations(t, h.fset, h.loaded[testPathPrefix+pkg], pkg, diags)
	}
}

// RunFix analyzes each package, applies every suggested fix, and
// compares each rewritten file byte-exactly against <file>.golden. Files
// without fixes must have no golden.
func RunFix(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	h := newHarness(t)
	for _, pkg := range pkgs {
		diags := h.analyze(t, a, pkg)
		loaded := h.loaded[testPathPrefix+pkg]

		src := make(map[string][]byte)
		for _, f := range loaded.Files {
			name := h.fset.Position(f.FileStart).Filename
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			src[name] = data
		}
		fixed, err := analysis.ApplyFixes(h.fset, diags, src)
		if err != nil {
			t.Fatalf("linttest: applying %s fixes to %s: %v", a.Name, pkg, err)
		}
		for name, after := range fixed {
			golden := name + ".golden"
			changed := !bytes.Equal(after, src[name])
			want, err := os.ReadFile(golden)
			if os.IsNotExist(err) {
				if changed {
					t.Errorf("linttest: %s: fixes change the file but %s does not exist; got:\n%s", name, golden, after)
				}
				continue
			}
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			if !bytes.Equal(after, want) {
				t.Errorf("linttest: %s: fixed output differs from %s\n--- got ---\n%s\n--- want ---\n%s", name, golden, after, want)
			}
		}
	}
}

// harness shares one FileSet, importer, and fact store across the
// packages of a Run, so cross-package imports and facts line up.
type harness struct {
	fset    *token.FileSet
	base    types.Importer
	loaded  map[string]*load.Package // by full import path
	facts   analysis.Facts
	srcRoot string
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	fset := token.NewFileSet()
	h := &harness{
		fset:    fset,
		loaded:  make(map[string]*load.Package),
		facts:   make(analysis.Facts),
		srcRoot: filepath.Join("testdata", "src"),
	}
	h.base = load.Importer(fset, nil, moduleExports(t))
	return h
}

// Import resolves testdata-internal imports from source and everything
// else through the module's export data. This makes harness a
// types.Importer usable for chained testdata packages.
func (h *harness) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, testPathPrefix) {
		return h.base.Import(path)
	}
	p, err := h.load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

func (h *harness) load(path string) (*load.Package, error) {
	if p, ok := h.loaded[path]; ok {
		return p, nil
	}
	dir := filepath.Join(h.srcRoot, filepath.FromSlash(strings.TrimPrefix(path, testPathPrefix)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linttest: %v", err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	p, err := load.CheckFiles(h.fset, h, path, filenames, nil)
	if err != nil {
		return nil, err
	}
	h.loaded[path] = p
	return p, nil
}

// analyze runs a over one testdata package with the shared fact store.
func (h *harness) analyze(t *testing.T, a *analysis.Analyzer, pkg string) []analysis.Diagnostic {
	t.Helper()
	path := testPathPrefix + pkg
	loaded, err := h.load(path)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	findings := analysis.CheckPackage([]*analysis.Analyzer{a}, loaded, h.facts, nil)
	diags := make([]analysis.Diagnostic, len(findings))
	for i, f := range findings {
		diags[i] = f.Diagnostic
	}
	return diags
}

// moduleExports indexes export data for every module package and its
// (stdlib) dependencies, shared across the test's packages.
func moduleExports(t *testing.T) map[string]string {
	t.Helper()
	root := moduleRoot(t)
	exports, err := load.Exports(root, "./...")
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	return exports
}

// moduleRoot locates the enclosing module's directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("linttest: go list -m: %v\n%s", err, stderr.String())
	}
	return strings.TrimSpace(string(out))
}

// expectation is one `want` regexp anchored to a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile("//\\s*want\\s+(.*)$")

// parseWants extracts the `want` expectations from a package's comments.
func parseWants(t *testing.T, fset *token.FileSet, loaded *load.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range loaded.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("linttest: %s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitPatterns parses a want payload: a sequence of Go-quoted strings
// (interpreted or backquoted).
func splitPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		q, rest, err := scanQuoted(s)
		if err != nil {
			t.Fatalf("linttest: %s: malformed want clause %q: %v", pos, s, err)
		}
		out = append(out, q)
		s = strings.TrimSpace(rest)
	}
	return out
}

// scanQuoted consumes one leading Go string literal from s.
func scanQuoted(s string) (value, rest string, err error) {
	switch s[0] {
	case '`':
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated backquote")
		}
		return s[1 : 1+end], s[end+2:], nil
	case '"':
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				v, err := strconv.Unquote(s[:i+1])
				return v, s[i+1:], err
			}
		}
		return "", "", fmt.Errorf("unterminated quote")
	default:
		return "", "", fmt.Errorf("expected quoted pattern")
	}
}

func checkExpectations(t *testing.T, fset *token.FileSet, loaded *load.Package, pkg string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, loaded)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	if t.Failed() {
		t.Logf("package %s: %d diagnostics, %d expectations", pkg, len(diags), len(wants))
	}
}
