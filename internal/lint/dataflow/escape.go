package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"reflect"
	"sort"
)

// Summary is the interprocedural escape behavior of one function, in
// combined parameter indexing (receiver first when present). It is what
// crosses package boundaries as a serialized fact.
type Summary struct {
	// Key is the function's FullName.
	Key string `json:"key"`
	// Sig is the receiver-less SigKey for concrete methods, used to match
	// interface-method call sites; empty for plain functions.
	Sig string `json:"sig,omitempty"`
	// ParamEscape describes, per parameter, where a value passed in
	// ultimately escapes ("" absent = it doesn't).
	ParamEscape map[int]string `json:"param_escape,omitempty"`
	// ParamFlow lists, per parameter, the result indices its value can
	// flow to.
	ParamFlow map[int][]int `json:"param_flow,omitempty"`
	// ParamStore lists, per parameter, the other parameters whose
	// referents it can be stored into.
	ParamStore map[int][]int `json:"param_store,omitempty"`
	// FreshResult lists result indices that carry a tracked value born
	// inside the callee (so callers must treat them as sources).
	FreshResult []int `json:"fresh_result,omitempty"`
}

func (s *Summary) empty() bool {
	return len(s.ParamEscape) == 0 && len(s.ParamFlow) == 0 &&
		len(s.ParamStore) == 0 && len(s.FreshResult) == 0
}

// EscapeFacts is the per-package fact blob: every function's summary in
// deterministic order.
type EscapeFacts struct {
	Summaries []*Summary `json:"summaries"`
}

// EncodeEscapeFacts serializes a summary table.
func EncodeEscapeFacts(sums map[string]*Summary) []byte {
	var f EscapeFacts
	for _, k := range sortedKeys(sums) {
		f.Summaries = append(f.Summaries, sums[k])
	}
	return EncodeFacts(f)
}

// DecodeEscapeFacts parses a fact blob into a key→summary table,
// tolerating nil/garbage (returns an empty table).
func DecodeEscapeFacts(data []byte) map[string]*Summary {
	out := make(map[string]*Summary)
	for _, s := range DecodeFacts[EscapeFacts](data).Summaries {
		if s != nil && s.Key != "" {
			out[s.Key] = s
		}
	}
	return out
}

// EscapeConfig parameterizes the engine for one analyzer.
type EscapeConfig struct {
	// Source reports whether a value of type t is intrinsically tracked
	// (a fresh taint source), e.g. relation.View.
	Source func(t types.Type) bool
	// Launders reports calls whose results are clean copies regardless of
	// arguments (e.g. View.Materialize). No flow crosses such a call.
	Launders func(g *Graph, cs *CallSite) bool
}

// Finding is one escape of a tracked value.
type Finding struct {
	// Pos is where the escape happens.
	Pos token.Pos
	// What describes the escape, including the callee chain for escapes
	// that happen inside called functions.
	What string
	// Stmt is the enclosing statement, for directive lookups.
	Stmt ast.Node
}

// Escape runs the bottom-up interprocedural escape analysis for one
// package, given the already-computed summaries of its imports.
type Escape struct {
	g        *Graph
	cfg      EscapeConfig
	imported map[string]*Summary

	flows     map[*Func]*Flow
	local     map[string]*Summary
	methodIdx map[string][]*Summary
}

// NewEscape prepares an engine. imported maps function keys (from any
// imported package's facts) to their summaries.
func NewEscape(g *Graph, cfg EscapeConfig, imported map[string]*Summary) *Escape {
	if imported == nil {
		imported = make(map[string]*Summary)
	}
	return &Escape{
		g:        g,
		cfg:      cfg,
		imported: imported,
		flows:    make(map[*Func]*Flow),
		local:    make(map[string]*Summary),
	}
}

// Solve computes the package's function summaries to a fixpoint.
func (e *Escape) Solve() {
	for _, fn := range e.g.All() {
		e.flows[fn] = e.g.FlowOf(fn)
		e.local[fn.Key()] = &Summary{Key: fn.Key(), Sig: methodSig(fn.Obj)}
	}
	const maxRounds = 12
	for round := 0; round < maxRounds; round++ {
		e.rebuildMethodIndex()
		changed := false
		for _, fn := range e.g.All() {
			s := e.computeSummary(fn)
			if !summariesEqual(s, e.local[fn.Key()]) {
				e.local[fn.Key()] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	e.rebuildMethodIndex()
}

// Summaries returns the package's computed summary table.
func (e *Escape) Summaries() map[string]*Summary { return e.local }

// Facts serializes the summaries downstream packages resolve calls
// against: this package's and every one it imported, so a summary
// reaches packages that do not import its package directly — an
// importer calling a method promoted from an embedded field of another
// package, or an interface method implemented only there.
func (e *Escape) Facts() []byte {
	all := maps.Clone(e.imported)
	maps.Copy(all, e.local)
	return EncodeEscapeFacts(all)
}

func methodSig(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return SigKey(fn.Name(), sig)
}

func (e *Escape) rebuildMethodIndex() {
	e.methodIdx = make(map[string][]*Summary)
	add := func(s *Summary) {
		if s.Sig != "" {
			e.methodIdx[s.Sig] = append(e.methodIdx[s.Sig], s)
		}
	}
	// Deterministic: locals in key order, then imported in key order.
	for _, k := range sortedKeys(e.local) {
		add(e.local[k])
	}
	for _, k := range sortedKeys(e.imported) {
		add(e.imported[k])
	}
}

func sortedKeys(m map[string]*Summary) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// calleeSummaries resolves the summaries governing a call site: the
// static callee's (local first, then imported facts), or the union of
// concrete methods matching a dynamic interface call. nil means the
// callee is unknown and the caller must assume arg→result flow.
func (e *Escape) calleeSummaries(cs *CallSite) []*Summary {
	if cs.Static != nil {
		key := FuncKey(cs.Static)
		if s, ok := e.local[key]; ok {
			return []*Summary{s}
		}
		if s, ok := e.imported[key]; ok {
			return []*Summary{s}
		}
		return nil
	}
	if cs.Iface != nil {
		if cands := e.methodIdx[FuncSigKey(cs.Iface)]; len(cands) > 0 {
			return cands
		}
	}
	return nil
}

func calleeName(cs *CallSite) string {
	if cs.Static != nil {
		return FuncKey(cs.Static)
	}
	if cs.Iface != nil {
		return cs.Iface.FullName()
	}
	return "unknown callee"
}

// callEdges materializes each call site's interprocedural effect as
// extra edges under the current summary tables, and returns the set of
// call-result nodes that are fresh taint sources.
func (e *Escape) callEdges(flow *Flow) (map[*Node][]*FlowEdge, []*Node) {
	extra := make(map[*Node][]*FlowEdge)
	var fresh []*Node
	addEdge := func(from, to *Node, kind int, pos token.Pos, what string, stmt ast.Node) {
		if from == nil || to == nil || from == to {
			return
		}
		extra[from] = append(extra[from], &FlowEdge{From: from, To: to, Kind: kind, Pos: pos, What: what, Stmt: stmt})
	}
	for _, cs := range flow.Calls {
		if e.cfg.Launders != nil && e.cfg.Launders(e.g, cs) {
			continue
		}
		sums := e.calleeSummaries(cs)
		if sums == nil {
			// Unknown callee: assume arguments may flow to results, but
			// not that they escape — stdlib reads would drown real
			// findings otherwise. Documented soundness tradeoff.
			for _, a := range cs.Args {
				for _, r := range cs.Results {
					addEdge(a, r, EdgeNormal, cs.Call.Lparen, "may flow through call", cs.Stmt)
				}
			}
			continue
		}
		for _, sum := range sums {
			for i, a := range cs.Args {
				if a == nil {
					continue
				}
				if d, ok := sum.ParamEscape[i]; ok {
					addEdge(a, flow.Escape, EdgeNormal, cs.Call.Lparen,
						"escapes via call to "+calleeName(cs)+" ("+d+")", cs.Stmt)
				}
				for _, j := range sum.ParamFlow[i] {
					if j < len(cs.Results) {
						addEdge(a, cs.Results[j], EdgeNormal, cs.Call.Lparen, "flows through call to "+calleeName(cs), cs.Stmt)
					}
				}
				// A callee parking an argument inside another makes that
				// other argument a container, not an alias.
				for _, k := range sum.ParamStore[i] {
					if k < len(cs.Args) {
						addEdge(a, cs.Args[k], EdgeContain, cs.Call.Lparen, "stored into an argument of "+calleeName(cs), cs.Stmt)
					}
				}
			}
			for _, j := range sum.FreshResult {
				if j < len(cs.Results) && cs.Results[j] != nil {
					fresh = append(fresh, cs.Results[j])
				}
			}
		}
	}
	return extra, fresh
}

// computeSummary derives fn's summary under the current tables.
func (e *Escape) computeSummary(fn *Func) *Summary {
	flow := e.flows[fn]
	extra, fresh := e.callEdges(flow)
	s := &Summary{Key: fn.Key(), Sig: methodSig(fn.Obj)}

	for i, p := range flow.Params {
		if p == nil {
			continue
		}
		taint := flow.Reach([]*Node{p}, extra)
		for j, r := range flow.Returns {
			// Direct only: a returned container holding the parameter is a
			// store, not a flow — recording it would overtaint callers.
			if r != nil && taint[r] == TaintDirect {
				if s.ParamFlow == nil {
					s.ParamFlow = make(map[int][]int)
				}
				s.ParamFlow[i] = append(s.ParamFlow[i], j)
			}
		}
		for k, q := range flow.Params {
			if k != i && q != nil && taint[q] > 0 {
				if s.ParamStore == nil {
					s.ParamStore = make(map[int][]int)
				}
				s.ParamStore[i] = append(s.ParamStore[i], k)
			}
		}
		if taint[flow.Escape] > 0 {
			if d := e.firstEscape(flow, extra, taint); d != "" {
				if s.ParamEscape == nil {
					s.ParamEscape = make(map[int]string)
				}
				s.ParamEscape[i] = d
			}
		}
	}

	srcs := e.sourceNodes(flow, fresh)
	if len(srcs) > 0 {
		taint := flow.Reach(srcs, extra)
		for j, r := range flow.Returns {
			if r != nil && taint[r] == TaintDirect {
				s.FreshResult = append(s.FreshResult, j)
			}
		}
	}
	return s
}

// sourceNodes collects fn's intrinsic taint sources: every non-parameter
// node whose type the config marks as tracked, plus fresh call results.
func (e *Escape) sourceNodes(flow *Flow, fresh []*Node) []*Node {
	isParam := make(map[*Node]bool)
	for _, p := range flow.Params {
		if p != nil {
			isParam[p] = true
		}
	}
	var srcs []*Node
	for _, n := range flow.Nodes {
		if n.IsEscape || n.NoSource || isParam[n] || n.Type == nil {
			continue
		}
		if e.cfg.Source != nil && e.cfg.Source(n.Type) {
			srcs = append(srcs, n)
		}
	}
	srcs = append(srcs, fresh...)
	return srcs
}

// firstEscape finds the first (source-order) escape edge whose origin is
// tainted and renders it for a summary description.
func (e *Escape) firstEscape(flow *Flow, extra map[*Node][]*FlowEdge, taint map[*Node]int) string {
	if edge := firstEscapeEdge(flow, extra, taint); edge != nil {
		return edge.What + " at " + e.g.PosString(edge.Pos)
	}
	return ""
}

func firstEscapeEdge(flow *Flow, extra map[*Node][]*FlowEdge, taint map[*Node]int) *FlowEdge {
	for _, edge := range flow.Edges {
		if edge.To.IsEscape && taint[edge.From] > 0 {
			return edge
		}
	}
	// Deterministic order over extra edges: walk nodes in creation order.
	for _, n := range flow.Nodes {
		for _, edge := range extra[n] {
			if edge.To.IsEscape && taint[edge.From] > 0 {
				return edge
			}
		}
	}
	return nil
}

// Findings reports, per function, every escape edge fed by an intrinsic
// source under the solved summaries. Escapes fed only by parameters are
// not findings here — they surface at call sites, where the value was
// born.
func (e *Escape) Findings() []Finding {
	var out []Finding
	seen := make(map[string]bool)
	for _, fn := range e.g.All() {
		flow := e.flows[fn]
		extra, fresh := e.callEdges(flow)
		srcs := e.sourceNodes(flow, fresh)
		if len(srcs) == 0 {
			continue
		}
		taint := flow.Reach(srcs, extra)
		report := func(edge *FlowEdge) {
			if !edge.To.IsEscape || taint[edge.From] == 0 {
				return
			}
			key := e.g.PosString(edge.Pos) + "|" + edge.What
			if seen[key] {
				return
			}
			seen[key] = true
			out = append(out, Finding{Pos: edge.Pos, What: edge.What, Stmt: edge.Stmt})
		}
		for _, edge := range flow.Edges {
			report(edge)
		}
		for _, n := range flow.Nodes {
			for _, edge := range extra[n] {
				report(edge)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

func summariesEqual(a, b *Summary) bool {
	if a == nil || b == nil {
		return a == b
	}
	normalize := func(s *Summary) {
		for _, v := range s.ParamFlow {
			sort.Ints(v)
		}
		for _, v := range s.ParamStore {
			sort.Ints(v)
		}
		sort.Ints(s.FreshResult)
	}
	normalize(a)
	normalize(b)
	return reflect.DeepEqual(a, b)
}
