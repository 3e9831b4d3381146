package lint_test

import (
	"go/ast"
	"strings"
	"testing"

	"cyclojoin/internal/lint"
	"cyclojoin/internal/lint/analysis"
)

// suppressors maps each suppression directive to the analyzer it
// silences.
var suppressors = map[string]string{
	"viewsafe":   "viewescape",
	"bufsafe":    "bufown",
	"creditsafe": "creditflow",
	"locksafe":   "lockorder",
	"coldpath":   "hotpathalloc",
	"role":       "spscrole",
	"pubsafe":    "frozenpub",
	"sharesafe":  "shareguard",
	"waitsafe":   "waitcycle",
}

// TestEverySuppressionSuppresses drops each suppression directive in the
// module's code, test files included, one at a time, and requires its
// analyzer to report at least one diagnostic without it. A directive
// that silences nothing is dead weight that would also hide a future
// finding; and a live one is the only guard some analyzers have on real
// product code.
func TestEverySuppressionSuppresses(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module once per directive")
	}
	pkgs := loadPackages(t, nil, "./...")
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range lint.Analyzers() {
		byName[a.Name] = a
	}
	for name, a := range suppressors {
		if byName[a] == nil {
			t.Fatalf("directive %s names unknown analyzer %s", name, a)
		}
	}
	seen := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for i, c := range cg.List {
					name, ok := strings.CutPrefix(c.Text, analysis.DirectivePrefix)
					if !ok {
						continue
					}
					name, _, _ = strings.Cut(name, " ")
					a := byName[suppressors[name]]
					if a == nil {
						continue
					}
					seen++
					// The comment group is shared with any declaration's
					// Doc, so both directive lookups lose it.
					list := cg.List
					cg.List = append(append([]*ast.Comment(nil), list[:i]...), list[i+1:]...)
					diags, _ := analyze(t, pkgs, []*analysis.Analyzer{a})
					cg.List = list
					if len(diags) == 0 {
						t.Errorf("%s: //cyclolint:%s suppresses nothing: %s reports no diagnostic without it",
							pkg.Fset.Position(c.Pos()), name, a.Name)
					}
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("found no suppression directive in the module")
	}
	t.Logf("walked %d suppression directives", seen)
}
