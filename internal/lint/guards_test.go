package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclojoin/internal/lint/analysis"
	"cyclojoin/internal/lint/creditflow"
	"cyclojoin/internal/lint/frozenpub"
	"cyclojoin/internal/lint/load"
	"cyclojoin/internal/lint/lockorder"
	"cyclojoin/internal/lint/metricname"
	"cyclojoin/internal/lint/shareguard"
	"cyclojoin/internal/lint/spanpair"
	"cyclojoin/internal/lint/unsafeonly"
	"cyclojoin/internal/lint/waitcycle"
)

// mutatedPackage loads the module's package at dir (relative to the
// module root) with its tests and its dependencies, as cyclolint does,
// with the one occurrence of old in file replaced by new, in memory.
func mutatedPackage(t *testing.T, dir, file, old, new string) []*load.Package {
	t.Helper()
	return mutatedPackages(t, dir, mutation{filepath.Join(dir, file), old, new})
}

// mutation replaces the one occurrence of old in file (relative to the
// module root) by new.
type mutation struct{ file, old, new string }

// mutatedPackages is mutatedPackage with several mutations, applied in
// order; they may reach into the package's dependencies.
func mutatedPackages(t *testing.T, dir string, ms ...mutation) []*load.Package {
	t.Helper()
	overlay := make(map[string][]byte)
	for _, m := range ms {
		name := filepath.Join(moduleRoot(t), m.file)
		src, ok := overlay[name]
		if !ok {
			var err error
			if src, err = os.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Fatalf("%s: mutation site %q occurs %d times, want 1", m.file, m.old, n)
		}
		overlay[name] = []byte(strings.Replace(string(src), m.old, m.new, 1))
	}
	return loadPackages(t, overlay, "./"+dir)
}

// requireDiagnostic runs a over pkgs and requires a diagnostic containing
// want.
func requireDiagnostic(t *testing.T, a *analysis.Analyzer, pkgs []*load.Package, want string) {
	t.Helper()
	diags, _ := analyze(t, pkgs, []*analysis.Analyzer{a})
	for _, d := range diags {
		if strings.Contains(d, want) {
			return
		}
	}
	t.Errorf("%s reports no diagnostic containing %q on the mutated package; got %q", a.Name, want, diags)
}

// TestLockorderGuard pins lockorder on the ring's real locks: Close holds
// Ring.mu while closeNodes stops every node under node.recvMu, so taking
// a node's recvMu before Ring.mu in Close inverts the order.
func TestLockorderGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
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
		t.Skip("loads and analyzes a product package")
	}
	pkg := mutatedPackage(t, "internal/ring", "node.go",
		"\t\tn.injectSpace.Signal()\n",
		"\t\t<-n.injectSpace.C()\n\t\tn.injectSpace.Signal()\n")
	requireDiagnostic(t, waitcycle.Analyzer, pkg,
		"blocked at park of (cyclojoin/internal/ring.node).injectSpace")
}

// TestWaitcycleGuardCQ pins waitcycle on the work-queue core's
// completion send as a transport loop reaches it. With the shutdown arm
// of Complete's blocking send gone, tcplink's read loop blocks on the CQ
// send, and a write loop that reaps the CQ only after the read loop's
// signal waits on the loop it is about to release. The send lives in
// package wq, behind the Complete that tcplink calls, so the cycle is
// visible only through the helper ops wq exports.
func TestWaitcycleGuardCQ(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
	}
	pkgs := mutatedPackages(t, "internal/rdma/tcplink",
		mutation{"internal/rdma/wq/wq.go",
			"\tselect {\n\tcase q.cq <- c:\n\tdefault:\n\t\tselect {\n\t\tcase q.cq <- c:\n\t\tcase <-q.done:\n\t\t\tq.park(c)\n\t\t\treturn\n\t\t}\n\t}\n",
			"\tq.cq <- c\n"},
		mutation{"internal/rdma/tcplink/tcplink.go",
			"\tl.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})\n\treturn true\n}\n",
			"\tl.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})\n\treaped <- 1\n\treturn true\n}\n\n" +
				"var reaped = make(chan int)\n\nfunc (l *link) reap() {\n\t<-reaped\n\tl.PollCQ(nil)\n}\n"},
		mutation{"internal/rdma/tcplink/tcplink.go",
			"\tfor l.NextSend(&wr) {\n",
			"\tfor l.NextSend(&wr) {\n\t\tl.reap()\n"})
	requireDiagnostic(t, waitcycle.Analyzer, pkgs,
		"blocked at send of (cyclojoin/internal/rdma/wq.Queue).cq")
}

// TestShareguardGuard pins shareguard on a read lock: tcplink's write
// and read loops both reach the work-queue core's park under cqMu's
// RLock, which does not exclude one reader from another, so park's
// append without parkMu races.
func TestShareguardGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
	}
	pkgs := mutatedPackages(t, "internal/rdma/tcplink",
		mutation{"internal/rdma/wq/wq.go",
			"\tq.parkMu.Lock()\n\tq.parked = append(q.parked, c)\n\tq.parkMu.Unlock()\n",
			"\tq.parked = append(q.parked, c)\n"})
	requireDiagnostic(t, shareguard.Analyzer, pkgs,
		"(cyclojoin/internal/rdma/wq.Queue).parked has a plain write with no common guard")
}

// TestFrozenpubGuard pins frozenpub on the health sampler's published
// snapshot: Current readers Load it without a lock, so a field write
// after the Store races every reader.
func TestFrozenpubGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
	}
	pkgs := mutatedPackage(t, "internal/health", "health.go",
		"\ts.cur.Store(snap)\n",
		"\ts.cur.Store(snap)\n\tsnap.Score = 0\n")
	requireDiagnostic(t, frozenpub.Analyzer, pkgs,
		"snap is written after being atomically published at")
}

// TestCreditflowGuard pins creditflow on the ring's send-credit pool: a
// join entity that stops mid-forward must push the free send buffer it
// popped back, or the pool shrinks by one slot for good.
func TestCreditflowGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
	}
	pkgs := mutatedPackage(t, "internal/ring", "node.go",
		"\t\t\t\t\tn.freeSend.TryPush(buf)\n\t\t\t\t\tn.fjoin.End(spd)\n",
		"\t\t\t\t\tn.fjoin.End(spd)\n")
	requireDiagnostic(t, creditflow.Analyzer, pkgs,
		"send credit buf (popped at")
}

// TestSpanpairGuard pins spanpair on tcplink's receiver-not-ready span:
// a receiver that shuts down while waiting for a buffer must still end
// the credit-stall span it opened.
func TestSpanpairGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
	}
	pkgs := mutatedPackage(t, "internal/rdma/tcplink", "tcplink.go",
		"\t\t\tl.Shard().End(cs)\n\t\t\treturn false\n",
		"\t\t\treturn false\n")
	requireDiagnostic(t, spanpair.Analyzer, pkgs,
		"trace span cs (Begin at")
}

// TestUnsafeonlyGuard pins unsafeonly on the relation codec's one unsafe
// file: without its build constraint the portable fallback could never
// be selected.
func TestUnsafeonlyGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
	}
	pkgs := mutatedPackage(t, "internal/relation", "endian_le.go",
		"//go:build 386 || amd64 || amd64p32 || arm || arm64 || loong64 || mipsle || mips64le || ppc64le || riscv64 || wasm\n",
		"\n")
	requireDiagnostic(t, unsafeonly.Analyzer, pkgs,
		"allowlisted unsafe file endian_le.go lacks a //go:build constraint")
}

// TestMetricnameGuard pins metricname on the ring's per-node counters: a
// counter's name must end in _total.
func TestMetricnameGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes a product package")
	}
	pkgs := mutatedPackage(t, "internal/ring", "node.go",
		`"ring_bytes_in_total"`,
		`"ring_bytes_in"`)
	requireDiagnostic(t, metricname.Analyzer, pkgs,
		`Counter name "ring_bytes_in" must end in _total`)
}
