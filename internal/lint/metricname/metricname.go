// Package metricname keeps the Prometheus surface greppable and
// consistently unit-suffixed.
//
// Every instrument this repo exposes is registered through
// metrics.Registry.Counter/Gauge/Histogram. The exposition surface is
// only as auditable as those registration sites: a computed name cannot
// be grepped for, and a name without a unit suffix cannot be read off a
// dashboard without opening the source. The analyzer therefore requires
// the name argument to be a snake_case string literal whose final token
// names the unit or level appropriate to the instrument kind:
//
//	Counter   → _total (including _bytes_total)
//	Gauge     → _depth | _bytes | _ns | _state | _permille
//	Histogram → _ns | _seconds | _bytes | _depth
//
// The gauge list covers the live-health surface: _ns for point-in-time
// latency readings (windowed percentiles), _state for small enums
// (verdict kinds), _permille for ratio shares scaled to integers.
package metricname

import (
	"go/ast"
	"regexp"
	"strconv"

	"cyclojoin/internal/lint/analysis"
)

// metricsPkg is the registry the convention applies to.
const metricsPkg = "cyclojoin/internal/metrics"

// snakeCase is the overall shape: lowercase tokens joined by single
// underscores, no leading digit.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// suffixes maps registry method → allowed final name tokens.
var suffixes = map[string][]string{
	"Counter":   {"total"},
	"Gauge":     {"depth", "bytes", "ns", "state", "permille"},
	"Histogram": {"ns", "seconds", "bytes", "depth"},
}

// suffixRe precompiles the per-method suffix checks.
var suffixRe = map[string]*regexp.Regexp{
	"Counter":   regexp.MustCompile(`_total$`),
	"Gauge":     regexp.MustCompile(`_(depth|bytes|ns|state|permille)$`),
	"Histogram": regexp.MustCompile(`_(ns|seconds|bytes|depth)$`),
}

// Analyzer enforces the metric naming convention at registration sites.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "metric registration names must be snake_case string literals with a unit suffix per instrument kind",
	Run:  run,
}

func run(pass *analysis.Pass) {
	// The registry's own package defines the methods; its registration
	// calls in examples/tests are out of scope for the convention.
	if pass.Pkg.Path() == metricsPkg {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for method := range suffixes {
				if pass.IsMethodOn(call, metricsPkg, "Registry", method) {
					checkCall(pass, call, method)
					break
				}
			}
			return true
		})
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, method string) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok {
		pass.Reportf(call.Args[0].Pos(),
			"metric name passed to Registry.%s must be a string literal so the exposition surface stays greppable", method)
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !snakeCase.MatchString(name) {
		pass.Reportf(lit.Pos(), "metric name %q is not snake_case", name)
		return
	}
	if !suffixRe[method].MatchString(name) {
		pass.Reportf(lit.Pos(), "%s name %q must end in %s", method, name, suffixList(method))
	}
}

func suffixList(method string) string {
	out := ""
	for i, s := range suffixes[method] {
		if i > 0 {
			out += " or "
		}
		out += "_" + s
	}
	return out
}
