package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
)

const originSrc = `package q

type node struct{ stop chan struct{} }

func (n *node) start() {
	go n.recvLoop()
	go func() {
		n.sendLoop()
	}()
}

func (n *node) recvLoop() { n.deliver() }

func (n *node) sendLoop() { n.drain() }

func (n *node) deliver() {}

func (n *node) drain() { n.deliver() }

func (n *node) helper() { n.deliver() }

func orphan() {}

func asValue() {}

var hook = asValue

func generic[T any](v T) {}

func useGeneric() { go generic[int](1) }

func (n *node) flush() {}

func (n *node) launchValue() {
	f := n.flush
	go f()
}
`

func buildOriginGraph(t *testing.T) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "q.go", originSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("q", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	return NewGraph(fset, pkg, info, []*ast.File{file})
}

func TestOrigins(t *testing.T) {
	g := buildOriginGraph(t)
	o := NewOrigins(g)

	get := func(name string) *Func {
		for _, fn := range g.All() {
			if fn.Obj.Name() == name {
				return fn
			}
		}
		t.Fatalf("no func %s", name)
		return nil
	}
	of := func(name string) []string { return o.Of(get(name)) }

	// start has no callers: it runs at entry.
	if got := of("start"); !reflect.DeepEqual(got, []string{EntryOrigin}) {
		t.Errorf("start: got %v", got)
	}
	// recvLoop is launched by `go n.recvLoop()` — a single go label.
	recv := of("recvLoop")
	if len(recv) != 1 || !strings.HasPrefix(recv[0], "go q.go:") {
		t.Errorf("recvLoop: got %v", recv)
	}
	// sendLoop is called inside a go'd func literal: same treatment.
	send := of("sendLoop")
	if len(send) != 1 || !strings.HasPrefix(send[0], "go q.go:") {
		t.Errorf("sendLoop: got %v", send)
	}
	if recv[0] == send[0] {
		t.Errorf("recvLoop and sendLoop must have distinct labels: %v", recv)
	}
	// deliver is reached from both goroutines AND from helper (an
	// entry-rooted function): all three origins propagate.
	deliver := of("deliver")
	want := map[string]bool{recv[0]: true, send[0]: true, EntryOrigin: true}
	if len(deliver) != len(want) {
		t.Errorf("deliver: got %v, want origins %v", deliver, want)
	}
	for _, l := range deliver {
		if !want[l] {
			t.Errorf("deliver: unexpected origin %q in %v", l, deliver)
		}
	}
	// drain inherits sendLoop's launch label only.
	if got := of("drain"); !reflect.DeepEqual(got, send) {
		t.Errorf("drain: got %v, want %v", got, send)
	}
	// orphan is an uncalled root — entry, and no execution evidence.
	if got := of("orphan"); !reflect.DeepEqual(got, []string{EntryOrigin}) {
		t.Errorf("orphan: got %v", got)
	}
	if o.HasEvidence(get("orphan")) {
		t.Error("orphan: must have no execution evidence")
	}
	if !o.HasEvidence(get("deliver")) {
		t.Error("deliver: must have execution evidence")
	}
	// asValue is referenced as a value: execution context unknown → entry.
	if got := of("asValue"); !reflect.DeepEqual(got, []string{EntryOrigin}) {
		t.Errorf("asValue: got %v", got)
	}
	// generic launched with explicit instantiation resolves to its origin.
	gen := of("generic")
	if len(gen) != 1 || !strings.HasPrefix(gen[0], "go q.go:") {
		t.Errorf("generic: got %v", gen)
	}
	// flush is launched through a method value (f := n.flush; go f()):
	// the go statement's callee is not statically resolvable, so flush
	// falls back to entry with no execution evidence — the conservative
	// answer that keeps shareguard's prelaunch rule from firing on it.
	if got := of("flush"); !reflect.DeepEqual(got, []string{EntryOrigin}) {
		t.Errorf("flush: got %v, want [%s]", got, EntryOrigin)
	}
	if o.HasEvidence(get("flush")) {
		t.Error("flush: a method-value launch must not count as execution evidence")
	}

}
