// Command cyclolint runs the repo's custom analyzer suite (see
// internal/lint) in two modes:
//
// Standalone, over package patterns, from anywhere in the module:
//
//	cyclolint ./...
//	cyclolint -only shareguard,waitcycle ./...   (just the named analyzers)
//	cyclolint -skip hotpathalloc ./internal/ring (all but the named ones)
//	cyclolint -json ./...     (machine-readable diagnostics on stdout)
//	cyclolint -sarif ./...    (SARIF 2.1.0 on stdout, for code scanning)
//	cyclolint -fix ./...      (apply suggested fixes in place)
//
// As a go vet tool, speaking vet's unitchecker protocol — the .cfg
// handshake, -V=full version stamping and -flags discovery — so the
// toolchain drives it incrementally with build-cache hits:
//
//	go vet -vettool=$(pwd)/bin/cyclolint ./...
//
// Fact-using analyzers (UsesFacts) exchange per-package summaries across
// package boundaries. Standalone mode threads them in process, in the
// dependency order go list returns: the matched packages' dependencies
// in this module are analyzed for their facts only, so a pattern naming
// one package reports what ./... reports for it. In vet mode the summaries ride the vetx files: each unit
// writes a JSON table of {analyzer: {version, data}} blobs and reads its
// dependencies' tables via the .cfg's PackageVetx map. Blobs written by a
// different version of the same analyzer are discarded, and -V=full
// composes every analyzer's version so bumping one invalidates vet's
// cached verdicts.
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

// version is the driver's own version; suiteVersion folds in each
// analyzer's, so either kind of bump discards stale cached vet verdicts.
const version = "v0.4.0"

// suiteVersion stamps the driver and every analyzer version into the
// -V=full reply, which go vet hashes into its build-cache key.
func suiteVersion() string {
	parts := []string{version}
	for _, a := range lint.Analyzers() {
		if a.Version != "" {
			parts = append(parts, a.Name+"."+a.Version)
		}
	}
	return strings.Join(parts, "+")
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// outputOptions selects the standalone-mode diagnostic sink.
type outputOptions struct {
	json   bool
	sarif  bool
	fix    bool
	stats  bool
	budget time.Duration
}

func run(args []string) int {
	fs := flag.NewFlagSet("cyclolint", flag.ContinueOnError)
	vFlag := fs.String("V", "", "print version and exit (go vet protocol)")
	flagsFlag := fs.Bool("flags", false, "print flag definitions as JSON and exit (go vet protocol)")
	only := fs.String("only", "", "comma-separated analyzer names to run exclusively")
	skip := fs.String("skip", "", "comma-separated analyzer names to skip")
	jsonFlag := fs.Bool("json", false, "print diagnostics as JSON on stdout (standalone mode)")
	sarifFlag := fs.Bool("sarif", false, "print diagnostics as SARIF 2.1.0 on stdout (standalone mode)")
	fixFlag := fs.Bool("fix", false, "apply suggested fixes to the source files (standalone mode)")
	statsFlag := fs.Bool("stats", false, "print per-analyzer wall time on stderr (standalone mode)")
	budgetFlag := fs.Duration("budget", 0, "fail when total analysis wall time exceeds this duration (standalone mode)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cyclolint [-only names] [-skip names] [-json|-sarif] [-fix] [-stats] [-budget dur] [packages]\n       cyclolint <unit>.cfg  (go vet -vettool mode)\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *vFlag != "":
		// go vet invokes `tool -V=full` and wants "name version ...".
		fmt.Printf("cyclolint version %s\n", suiteVersion())
		return 0
	case *flagsFlag:
		// go vet discovers tool flags via `tool -flags`; we expose none.
		fmt.Println("[]")
		return 0
	}
	analyzers, err := selected(*only, *skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runUnit(analyzers, rest[0])
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return runStandalone(analyzers, rest, outputOptions{json: *jsonFlag, sarif: *sarifFlag, fix: *fixFlag, stats: *statsFlag, budget: *budgetFlag})
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

// runStandalone loads patterns via go list export data and analyzes each
// matched package, threading facts between packages in process.
func runStandalone(analyzers []*analysis.Analyzer, patterns []string, opts outputOptions) int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	// facts[analyzer][package path] — filled in dependency order, since
	// that is the order go list yields the matched packages in.
	facts := make(map[string]map[string][]byte)
	read := func(a *analysis.Analyzer, path string) []byte {
		return facts[a.Name][path]
	}
	tm := make(timings)
	var all []located
	for _, pkg := range pkgs {
		pkgPath := pkg.Types.Path()
		export := func(a *analysis.Analyzer, data []byte) {
			m := facts[a.Name]
			if m == nil {
				m = make(map[string][]byte)
				facts[a.Name] = m
			}
			m[pkgPath] = data
		}
		base := &analysis.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if pkg.DepOnly {
			var factful []*analysis.Analyzer
			for _, a := range analyzers {
				if a.UsesFacts {
					factful = append(factful, a)
				}
			}
			analyze(factful, base, read, export, tm)
			continue
		}
		diags := analyze(analyzers, base, read, export, tm)
		if opts.fix {
			if err := applyFixes(pkg.Fset, diags); err != nil {
				fmt.Fprintf(os.Stderr, "cyclolint: -fix: %v\n", err)
				return 2
			}
		}
		for _, d := range diags {
			all = append(all, located{pos: pkg.Fset.Position(d.Pos), analyzer: d.analyzer, message: d.Message})
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
func applyFixes(fset *token.FileSet, diags []labeled) error {
	var withFix []analysis.Diagnostic
	src := make(map[string][]byte)
	for _, d := range diags {
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

// unitConfig is the subset of go vet's unitchecker .cfg the tool needs.
type unitConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetxFile is the cyclolint facts file exchanged between vet units: one
// versioned blob per fact-exporting analyzer.
type vetxFile struct {
	Analyzers map[string]vetxEntry `json:"analyzers"`
}

type vetxEntry struct {
	Version string `json:"version"`
	Data    []byte `json:"data,omitempty"`
}

// runUnit analyzes one compilation unit described by a go vet .cfg.
func runUnit(analyzers []*analysis.Analyzer, cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cyclolint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	if cfg.VetxOnly {
		// Facts are still needed downstream: run just the fact-exporting
		// analyzers, with their reports discarded.
		var factAnalyzers []*analysis.Analyzer
		for _, a := range analyzers {
			if a.UsesFacts {
				factAnalyzers = append(factAnalyzers, a)
			}
		}
		analyzers = factAnalyzers
	}
	fset := token.NewFileSet()
	imp := load.Importer(fset, cfg.ImportMap, cfg.PackageFile)
	pkg, err := load.CheckFiles(fset, imp, cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
		return 2
	}
	// Dependencies' facts arrive via their vetx files, loaded lazily and
	// keyed by import path through the .cfg's PackageVetx map.
	depVetx := make(map[string]*vetxFile)
	read := func(a *analysis.Analyzer, path string) []byte {
		vf, ok := depVetx[path]
		if !ok {
			vf = loadVetx(cfg.PackageVetx[path])
			depVetx[path] = vf
		}
		if vf == nil {
			return nil
		}
		e, ok := vf.Analyzers[a.Name]
		if !ok || e.Version != a.Version {
			return nil
		}
		return e.Data
	}
	out := vetxFile{Analyzers: make(map[string]vetxEntry)}
	export := func(a *analysis.Analyzer, data []byte) {
		out.Analyzers[a.Name] = vetxEntry{Version: a.Version, Data: data}
	}
	diags := analyze(analyzers, &analysis.Pass{
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
	}, read, export, nil)
	if cfg.VetxOutput != "" {
		blob, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(cfg.VetxOutput, blob, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "cyclolint: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	if len(diags) > 0 {
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", relName(pos.Filename), pos.Line, pos.Column, d.analyzer, d.Message)
		}
		return 2
	}
	return 0
}

// loadVetx parses one dependency's facts file; any failure (missing path,
// old format) degrades to "no facts".
func loadVetx(path string) *vetxFile {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var vf vetxFile
	if err := json.Unmarshal(data, &vf); err != nil {
		return nil
	}
	return &vf
}

// labeled pairs a diagnostic with the analyzer that produced it.
type labeled struct {
	analysis.Diagnostic
	analyzer string
}

// analyze runs each analyzer over the shared pass skeleton and collects
// diagnostics sorted by (file, line, column, analyzer). When tm is
// non-nil, each analyzer's wall time is accumulated into it.
func analyze(analyzers []*analysis.Analyzer, base *analysis.Pass, read func(*analysis.Analyzer, string) []byte, export func(*analysis.Analyzer, []byte), tm timings) []labeled {
	var diags []labeled
	for _, a := range analyzers {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      base.Fset,
			Files:     base.Files,
			Pkg:       base.Pkg,
			TypesInfo: base.TypesInfo,
		}
		if read != nil {
			pass.ReadFacts = func(path string) []byte { return read(a, path) }
		}
		if export != nil {
			pass.ExportFacts = func(data []byte) { export(a, data) }
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			diags = append(diags, labeled{Diagnostic: d, analyzer: name})
		}
		start := time.Now()
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "cyclolint: %s: %v\n", a.Name, err)
		}
		if tm != nil {
			tm[name] += time.Since(start)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := base.Fset.Position(diags[i].Pos), base.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].analyzer < diags[j].analyzer
	})
	return diags
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
	Name    string      `json:"name"`
	Version string      `json:"version"`
	Rules   []sarifRule `json:"rules"`
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
			Tool:    sarifTool{Driver: sarifDriver{Name: "cyclolint", Version: suiteVersion(), Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(log)
}
