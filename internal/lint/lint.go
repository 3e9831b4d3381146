// Package lint assembles cyclolint's analyzer suite. Each analyzer
// enforces one repo invariant that tests cannot economically cover:
//
//	viewescape   — relation.View aliases must not outlive the buffer credit
//	bufown       — registered-buffer credits released on every path
//	creditflow   — ring send credits from the free pool returned on every path
//	lockorder    — one global lock-acquisition order, no cycles
//	hotpathalloc — //cyclolint:hotpath functions stay allocation-free
//	spanpair     — trace Begin/End pairing on every return path
//	spscrole     — each SPSC ring keeps a single producer and consumer goroutine
//	frozenpub    — atomically published objects are frozen after the Store
//	shareguard   — shared locations with a plain write need a common guard
//	waitcycle    — no static wait-for cycles between goroutine origins
//	unsafeonly   — unsafe confined to build-tagged endian files
//	metricname   — metric names are greppable, unit-suffixed literals
//
// bufown, creditflow and spanpair are three tables over one
// path-sensitive typestate engine, dataflow/typestate. spscrole,
// shareguard and waitcycle are three tables over one goroutine-origin
// engine, dataflow.RunTable: each is an op recognizer, an op payload and
// a final check, and the engine attributes the ops to the goroutines that
// run them. lockorder walks with the engine's labeled walk.
//
// cmd/cyclolint and the module-wide tests run Analyzers() through
// analysis.CheckPackage; the suite order is stable for deterministic
// output.
package lint

import (
	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/bufown"
	"cyclojoin/internal/lint/creditflow"
	"cyclojoin/internal/lint/frozenpub"
	"cyclojoin/internal/lint/hotpathalloc"
	"cyclojoin/internal/lint/lockorder"
	"cyclojoin/internal/lint/metricname"
	"cyclojoin/internal/lint/shareguard"
	"cyclojoin/internal/lint/spanpair"
	"cyclojoin/internal/lint/spscrole"
	"cyclojoin/internal/lint/unsafeonly"
	"cyclojoin/internal/lint/viewescape"
	"cyclojoin/internal/lint/waitcycle"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		viewescape.Analyzer,
		bufown.Analyzer,
		creditflow.Analyzer,
		lockorder.Analyzer,
		hotpathalloc.Analyzer,
		spanpair.Analyzer,
		spscrole.Analyzer,
		frozenpub.Analyzer,
		shareguard.Analyzer,
		waitcycle.Analyzer,
		unsafeonly.Analyzer,
		metricname.Analyzer,
	}
}
