// Package lockorder builds the program's whole lock-acquisition-order
// graph and reports cycles as potential deadlocks.
//
// Every sync.Mutex / sync.RWMutex the repo owns is assigned a class:
// "pkgpath.Type.field" for a mutex struct field, "pkgpath.var" for a
// package-level mutex (dataflow.LockCall). Within each function the
// analyzer follows the labeled walk's held set (dataflow.Graph.Walk): a
// deferred unlock keeps the lock held to the end of the function, which
// is exactly the window later acquisitions order against, and a launched
// goroutine starts with nothing held. Each
// acquisition made while another class is held records a directed edge
// held → acquired. Calls fold in the callee's transitively-acquired
// classes — computed to a fixpoint in-package and imported across package
// boundaries as facts, so an inversion split between two packages is
// still a cycle to the importer.
//
// A cycle means two executions can each hold one lock while waiting for
// the other: a deadlock that strikes only under contention, which is why
// tests rarely catch it. The report cites both acquisition sites of the
// local edge and the remote path that closes the cycle. A deliberate,
// externally-serialized inversion is annotated at the statement:
//
//	//cyclolint:locksafe <justification>
package lockorder

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/dataflow"
)

// Analyzer reports lock-acquisition-order cycles.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "all mutexes must be acquired in one global order; a cycle in the acquisition graph is a potential deadlock",
	UsesFacts: true,
	Run:       run,
}

// Edge records one observed acquisition order: To was locked while From
// was held. Positions are pre-rendered so they survive the fact boundary
// without a shared FileSet.
type Edge struct {
	From    string `json:"from"`
	To      string `json:"to"`
	FromPos string `json:"from_pos"`
	ToPos   string `json:"to_pos"`
}

// lockFacts is the per-package fact blob: every function's transitively
// acquired lock classes (for call-site folding) and every acquisition
// edge seen so far, merged transitively so any importer can close a
// cycle against the whole dependency cone.
type lockFacts struct {
	Acquires map[string][]string `json:"acquires,omitempty"`
	Edges    []Edge              `json:"edges,omitempty"`
}

// localEdge is an Edge still tied to this package's positions and syntax,
// so it can be reported on and directive-checked.
type localEdge struct {
	Edge
	toPos token.Pos
	node  ast.Node
	file  *ast.File
}

func run(pass *analysis.Pass) error {
	g := dataflow.NewGraph(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)

	acquires := make(map[string][]string)
	var imported []Edge
	for _, imp := range pass.Pkg.Imports() {
		f := dataflow.DecodeFacts[lockFacts](pass.ImportedFacts(imp.Path()))
		for k, v := range f.Acquires {
			acquires[k] = v
		}
		imported = append(imported, f.Edges...)
	}

	solveAcquires(g, acquires)
	local := collectEdges(pass, g, acquires)

	f := lockFacts{Acquires: make(map[string][]string)}
	for k, v := range acquires {
		if len(v) > 0 {
			f.Acquires[k] = v
		}
	}
	seen := make(map[Edge]bool)
	for _, e := range local {
		if !seen[e.Edge] {
			seen[e.Edge] = true
			f.Edges = append(f.Edges, e.Edge)
		}
	}
	for _, e := range imported {
		if !seen[e] {
			seen[e] = true
			f.Edges = append(f.Edges, e)
		}
	}
	key := func(e Edge) string { return e.From + "\x00" + e.To + "\x00" + e.FromPos + "\x00" + e.ToPos }
	sort.Slice(f.Edges, func(i, j int) bool { return key(f.Edges[i]) < key(f.Edges[j]) })
	pass.Export(dataflow.EncodeFacts(f))

	reportCycles(pass, local, imported)
	return nil
}

// ---- summaries: which classes a function transitively acquires ----

func solveAcquires(g *dataflow.Graph, acquires map[string][]string) {
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fn := range g.All() {
			set := make(map[string]bool)
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if cls, kind := dataflow.LockCall(g.Info, call); kind == dataflow.KindAcquire {
					set[cls] = true
				} else if callee := g.StaticCallee(call); callee != nil {
					for _, a := range acquires[callee.FullName()] {
						set[a] = true
					}
				}
				return true
			})
			cur := make([]string, 0, len(set))
			for c := range set {
				cur = append(cur, c)
			}
			sort.Strings(cur)
			if strings.Join(acquires[fn.Key()], "\x00") != strings.Join(cur, "\x00") {
				acquires[fn.Key()] = cur
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// ---- edge collection over the labeled walk ----

func collectEdges(pass *analysis.Pass, g *dataflow.Graph, acquires map[string][]string) []localEdge {
	var edges []localEdge
	for _, fn := range g.All() {
		add := func(held []dataflow.Held, to string, at ast.Node) {
			for _, h := range held {
				if h.Class == to {
					continue
				}
				edges = append(edges, localEdge{
					Edge: Edge{
						From:    h.Class,
						To:      to,
						FromPos: pass.Fset.Position(h.Pos).String(),
						ToPos:   pass.Fset.Position(at.Pos()).String(),
					},
					toPos: at.Pos(),
					node:  at,
					file:  fn.File,
				})
			}
		}
		g.Walk(fn, func(c *dataflow.Ctx, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || c.Deferred || len(c.Held) == 0 {
				return true
			}
			if cls, kind := dataflow.LockCall(g.Info, call); kind == dataflow.KindAcquire {
				add(c.Held, cls, call)
			} else if callee := g.StaticCallee(call); kind == 0 && callee != nil {
				for _, a := range acquires[callee.FullName()] {
					add(c.Held, a, call)
				}
			}
			return true
		})
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].toPos < edges[j].toPos })
	return edges
}

// ---- cycle detection ----

func reportCycles(pass *analysis.Pass, local []localEdge, imported []Edge) {
	adj := make(map[string][]Edge)
	add := func(e Edge) { adj[e.From] = append(adj[e.From], e) }
	seen := make(map[Edge]bool)
	for _, e := range local {
		if !seen[e.Edge] {
			seen[e.Edge] = true
			add(e.Edge)
		}
	}
	for _, e := range imported {
		if !seen[e] {
			seen[e] = true
			add(e)
		}
	}
	reported := make(map[string]bool)
	for _, e := range local {
		path := findPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		key := cycleKey(e.Edge, path)
		if reported[key] {
			continue
		}
		reported[key] = true
		if e.file != nil && pass.HasDirective(e.file, e.node, "locksafe") {
			continue
		}
		var back []string
		for _, p := range path {
			back = append(back, p.To+" (at "+p.ToPos+", holding "+p.From+" acquired at "+p.FromPos+")")
		}
		pass.Reportf(e.toPos,
			"lock acquisition order cycle: %s is acquired here while holding %s (acquired at %s), but elsewhere the order is reversed via %s; a potential deadlock — pick one global order, or annotate //cyclolint:locksafe with the serialization argument",
			e.To, e.From, e.FromPos, strings.Join(back, " -> "))
	}
}

// findPath BFSes from src to dst over adj, returning the edge path.
func findPath(adj map[string][]Edge, src, dst string) []Edge {
	type step struct {
		class string
		via   *step
		edge  Edge
	}
	visited := map[string]bool{src: true}
	queue := []*step{{class: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.class] {
			if visited[e.To] {
				continue
			}
			next := &step{class: e.To, via: cur, edge: e}
			if e.To == dst {
				var path []Edge
				for s := next; s.via != nil; s = s.via {
					path = append(path, s.edge)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			visited[e.To] = true
			queue = append(queue, next)
		}
	}
	return nil
}

// cycleKey canonicalizes a cycle by its participating classes.
func cycleKey(e Edge, path []Edge) string {
	set := map[string]bool{e.From: true, e.To: true}
	for _, p := range path {
		set[p.From] = true
		set[p.To] = true
	}
	classes := make([]string, 0, len(set))
	for c := range set {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return strings.Join(classes, "|")
}
