package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/load"
	"cyclojoin/internal/lint/lockorder"
	"cyclojoin/internal/lint/waitcycle"
)

// mutatedPackage type-checks the module's package at dir (relative to the
// module root) with the one occurrence of old in file replaced by new, in
// memory. Dependencies come from export data, so analyzers run on it see
// no imported facts.
func mutatedPackage(t *testing.T, dir, file, old, new string) *load.Package {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	exports, targets, err := load.GoList(root, "./"+dir)
	if err != nil {
		t.Fatalf("listing %s: %v", dir, err)
	}
	e := targets[len(targets)-1] // dependencies come first
	fset := token.NewFileSet()
	var files []*ast.File
	mutated := false
	for _, name := range e.GoFiles {
		path := filepath.Join(e.Dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if name == file {
			if n := strings.Count(text, old); n != 1 {
				t.Fatalf("%s/%s: mutation site %q occurs %d times, want 1", dir, file, old, n)
			}
			text = strings.Replace(text, old, new, 1)
			mutated = true
		}
		f, err := parser.ParseFile(fset, path, text, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if !mutated {
		t.Fatalf("%s has no file %s", dir, file)
	}
	info := load.NewInfo()
	pkg, err := (&types.Config{Importer: load.Importer(fset, nil, exports)}).Check(e.ImportPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking mutated %s: %v", dir, err)
	}
	return &load.Package{PkgPath: e.ImportPath, Fset: fset, Files: files, Types: pkg, TypesInfo: info}
}

// requireDiagnostic runs a on pkg and requires a diagnostic containing
// want.
func requireDiagnostic(t *testing.T, a *analysis.Analyzer, pkg *load.Package, want string) {
	t.Helper()
	diags, _ := analyze(t, []*load.Package{pkg}, []*analysis.Analyzer{a})
	for _, d := range diags {
		if strings.Contains(d, want) {
			return
		}
	}
	t.Errorf("%s reports no diagnostic containing %q on the mutated %s; got %q", a.Name, want, pkg.PkgPath, diags)
}

// TestLockorderGuard pins lockorder on the ring's real locks: Close holds
// Ring.mu while closeNodes stops every node under node.recvMu, so taking
// a node's recvMu before Ring.mu in Close inverts the order.
func TestLockorderGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a product package")
	}
	pkg := mutatedPackage(t, "internal/ring", "ring.go",
		"func (r *Ring) Close() error {\n",
		"func (r *Ring) Close() error {\n\tr.nodes[0].recvMu.Lock()\n")
	requireDiagnostic(t, lockorder.Analyzer, pkg,
		"lock acquisition order cycle: cyclojoin/internal/ring.Ring.mu is acquired here while holding cyclojoin/internal/ring.node.recvMu")
}

// TestWaitcycleGuard pins waitcycle on the ring's real eventcounts: an
// injector goroutine parks on injectSpace until the join entity's
// popInput signals it, so a join entity that parks on the same waiter
// before signalling waits on the goroutine it is about to release.
func TestWaitcycleGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a product package")
	}
	pkg := mutatedPackage(t, "internal/ring", "node.go",
		"\t\tn.injectSpace.Signal()\n",
		"\t\t<-n.injectSpace.C()\n\t\tn.injectSpace.Signal()\n")
	requireDiagnostic(t, waitcycle.Analyzer, pkg,
		"blocked at park of (cyclojoin/internal/ring.node).injectSpace")
}
