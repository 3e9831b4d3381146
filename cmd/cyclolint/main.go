// Command cyclolint runs the repo's custom analyzer suite (see
// internal/lint) over package patterns, from anywhere in the module:
//
//	cyclolint ./...
//	cyclolint -only shareguard,waitcycle ./...   (just the named analyzers)
//	cyclolint -skip hotpathalloc ./internal/ring (all but the named ones)
//	cyclolint -json ./...     (machine-readable diagnostics on stdout)
//	cyclolint -sarif ./...    (SARIF 2.1.0 on stdout, for code scanning)
//	cyclolint -fix ./...      (apply suggested fixes in place)
//
// Each matched package is linted with its tests: its in-package _test.go
// files join it, and its external _test package is linted too.
// Fact-using analyzers (UsesFacts) exchange per-package summaries across
// package boundaries, threaded in process in dependency order: the
// matched packages' dependencies in this module are analyzed for their
// facts only, so a pattern naming one package reports what ./... reports
// for it. The standard library is imported, never summarized.
//
// Diagnostics print as file:line:col: analyzer: message, sorted by
// (file, line, column, analyzer); the exit code is nonzero when any
// diagnostic is reported.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cyclojoin/internal/lint"
	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// outputOptions selects the diagnostic sink and the wall-time report.
type outputOptions struct {
	json   bool
	sarif  bool
	fix    bool
	stats  bool
	budget time.Duration
}

func run(args []string) int {
	fs := flag.NewFlagSet("cyclolint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run exclusively")
	skip := fs.String("skip", "", "comma-separated analyzer names to skip")
	jsonFlag := fs.Bool("json", false, "print diagnostics as JSON on stdout")
	sarifFlag := fs.Bool("sarif", false, "print diagnostics as SARIF 2.1.0 on stdout")
	fixFlag := fs.Bool("fix", false, "apply suggested fixes to the source files")
	statsFlag := fs.Bool("stats", false, "print per-analyzer wall time on stderr")
	budgetFlag := fs.Duration("budget", 0, "fail when total analysis wall time exceeds this duration")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cyclolint [-only names] [-skip names] [-json|-sarif] [-fix] [-stats] [-budget dur] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selected(*only, *skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return check(analyzers, patterns, outputOptions{json: *jsonFlag, sarif: *sarifFlag, fix: *fixFlag, stats: *statsFlag, budget: *budgetFlag})
}

// splitNames parses a comma-separated analyzer-name list, rejecting
// names not in the suite — a typo silently running the full suite (or
// none of it) is worse than an error.
func splitNames(list string) (map[string]bool, error) {
	known := make(map[string]bool)
	for _, a := range lint.Analyzers() {
		known[a.Name] = true
	}
	out := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q (see cyclolint -help for the suite)", name)
		}
		out[name] = true
	}
	return out, nil
}

// selected filters the suite: -only keeps exactly the named analyzers,
// -skip removes the named ones. The
// suite order is preserved either way.
func selected(only, skip string) ([]*analysis.Analyzer, error) {
	keep, err := splitNames(only)
	if err != nil {
		return nil, err
	}
	drop, err := splitNames(skip)
	if err != nil {
		return nil, err
	}
	for name := range keep {
		if drop[name] {
			return nil, fmt.Errorf("analyzer %q is in both -only and -skip", name)
		}
	}
	var out []*analysis.Analyzer
	for _, a := range lint.Analyzers() {
		if len(keep) > 0 && !keep[a.Name] {
			continue
		}
		if drop[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// located is a diagnostic resolved to a concrete file position, ready for
// cross-package accumulation and output.
type located struct {
	pos      token.Position
	analyzer string
	message  string
}

// check loads patterns with their tests and analyzes each package in
// dependency order, threading facts between packages in process.
func check(analyzers []*analysis.Analyzer, patterns []string, opts outputOptions) int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	pkgs, err := load.Packages(dir, nil, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	facts := make(analysis.Facts)
	tm := make(timings)
	var all []located
	for _, pkg := range pkgs {
		findings := analysis.CheckPackage(analyzers, pkg, facts, tm)
		if opts.fix {
			if err := applyFixes(pkg.Fset, findings); err != nil {
				fmt.Fprintf(os.Stderr, "cyclolint: -fix: %v\n", err)
				return 2
			}
		}
		for _, f := range findings {
			all = append(all, located{pos: pkg.Fset.Position(f.Pos), analyzer: f.Analyzer, message: f.Message})
		}
	}
	sortLocated(all)
	switch {
	case opts.json:
		emitJSON(os.Stdout, all)
	case opts.sarif:
		emitSARIF(os.Stdout, all)
	default:
		emitText(os.Stderr, all)
	}
	total := tm.total()
	if opts.stats {
		emitStats(os.Stderr, analyzers, tm)
	}
	if opts.budget > 0 && total > opts.budget {
		fmt.Fprintf(os.Stderr, "cyclolint: analysis wall time %s exceeds budget %s\n", total.Round(time.Millisecond), opts.budget)
		return 1
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

// timings accumulates per-analyzer wall time across packages.
type timings map[string]time.Duration

func (tm timings) total() time.Duration {
	var sum time.Duration
	for _, d := range tm {
		sum += d
	}
	return sum
}

// emitStats prints one line per analyzer in suite order, slowest data
// intact for the CI budget check to grep.
func emitStats(w io.Writer, analyzers []*analysis.Analyzer, tm timings) {
	for _, a := range analyzers {
		fmt.Fprintf(w, "cyclolint: stats: %-14s %10s\n", a.Name, tm[a.Name].Round(10*time.Microsecond))
	}
	fmt.Fprintf(w, "cyclolint: stats: %-14s %10s\n", "total", tm.total().Round(10*time.Microsecond))
}

// applyFixes rewrites the source files touched by the diagnostics'
// suggested fixes, refusing the whole batch on any conflict.
func applyFixes(fset *token.FileSet, findings []analysis.Finding) error {
	var withFix []analysis.Diagnostic
	src := make(map[string][]byte)
	for _, d := range findings {
		if len(d.Fixes) == 0 {
			continue
		}
		withFix = append(withFix, d.Diagnostic)
		for _, fix := range d.Fixes {
			for _, e := range fix.Edits {
				name := fset.Position(e.Pos).Filename
				if _, ok := src[name]; ok {
					continue
				}
				data, err := os.ReadFile(name)
				if err != nil {
					return err
				}
				src[name] = data
			}
		}
	}
	if len(withFix) == 0 {
		return nil
	}
	out, err := analysis.ApplyFixes(fset, withFix, src)
	if err != nil {
		return err
	}
	for name, data := range out {
		if bytes.Equal(data, src[name]) {
			continue
		}
		if err := os.WriteFile(name, data, 0o666); err != nil {
			return err
		}
	}
	return nil
}

func sortLocated(ds []located) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].pos.Filename != ds[j].pos.Filename {
			return ds[i].pos.Filename < ds[j].pos.Filename
		}
		if ds[i].pos.Line != ds[j].pos.Line {
			return ds[i].pos.Line < ds[j].pos.Line
		}
		if ds[i].pos.Column != ds[j].pos.Column {
			return ds[i].pos.Column < ds[j].pos.Column
		}
		return ds[i].analyzer < ds[j].analyzer
	})
}

// relName shortens a path to be relative to the working directory when
// that does not escape upward.
func relName(name string) string {
	if rel, err := filepath.Rel(".", name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

func emitText(w io.Writer, ds []located) {
	for _, d := range ds {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", relName(d.pos.Filename), d.pos.Line, d.pos.Column, d.analyzer, d.message)
	}
}

// jsonDiag is one -json output record.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func emitJSON(w io.Writer, ds []located) {
	out := make([]jsonDiag, 0, len(ds))
	for _, d := range ds {
		out = append(out, jsonDiag{File: relName(d.pos.Filename), Line: d.pos.Line, Column: d.pos.Column, Analyzer: d.analyzer, Message: d.message})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// SARIF 2.1.0 structures, trimmed to what code-scanning uploads need.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func emitSARIF(w io.Writer, ds []located) {
	var rules []sarifRule
	for _, a := range lint.Analyzers() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(ds))
	for _, d := range ds {
		results = append(results, sarifResult{
			RuleID:  d.analyzer,
			Level:   "warning",
			Message: sarifMessage{Text: d.message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relName(d.pos.Filename))},
				Region:           sarifRegion{StartLine: d.pos.Line, StartColumn: d.pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cyclolint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(log)
}
