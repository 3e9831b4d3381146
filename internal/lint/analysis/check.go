package analysis

import (
	"time"

	"cyclojoin/internal/lint/load"
)

// Facts is the fact store one run shares across its packages: the blob
// each fact-using analyzer exported for each package path, by analyzer
// name, then path.
type Facts map[string]map[string][]byte

// Finding is a diagnostic labeled with the analyzer that reported it.
type Finding struct {
	Diagnostic
	Analyzer string
}

// CheckPackage runs analyzers over pkg against facts, which it reads the
// imported packages' blobs from and adds pkg's to, and returns pkg's
// findings in report order. On a fact-only dependency (pkg.DepOnly) just
// the analyzers that UsesFacts run, and their reports are dropped. When
// tm is non-nil, each analyzer's wall time is added to it.
func CheckPackage(analyzers []*Analyzer, pkg *load.Package, facts Facts, tm map[string]time.Duration) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		if pkg.DepOnly && !a.UsesFacts {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			facts:     facts,
			Report: func(d Diagnostic) {
				if !pkg.DepOnly {
					findings = append(findings, Finding{Diagnostic: d, Analyzer: a.Name})
				}
			},
		}
		start := time.Now()
		a.Run(pass)
		if tm != nil {
			tm[a.Name] += time.Since(start)
		}
	}
	return findings
}
