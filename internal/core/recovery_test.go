package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/workload"
)

// faultyAlgorithm wraps a real algorithm and makes the stationary state of
// one host fail its first `failures` join calls — a stand-in for a host
// crashing mid-revolution.
type faultyAlgorithm struct {
	inner    join.Algorithm
	failures *atomic.Int32
}

var _ join.Algorithm = (*faultyAlgorithm)(nil)

func (f *faultyAlgorithm) Name() string                   { return f.inner.Name() }
func (f *faultyAlgorithm) Supports(p join.Predicate) bool { return f.inner.Supports(p) }
func (f *faultyAlgorithm) SetupRotating(r *relation.Relation, p join.Predicate, o join.Options) (*relation.Relation, error) {
	return f.inner.SetupRotating(r, p, o)
}

func (f *faultyAlgorithm) SetupStationary(s *relation.Relation, p join.Predicate, o join.Options) (join.Stationary, error) {
	st, err := f.inner.SetupStationary(s, p, o)
	if err != nil {
		return nil, err
	}
	return &faultyStationary{inner: st, failures: f.failures}, nil
}

type faultyStationary struct {
	inner    join.Stationary
	failures *atomic.Int32
}

// errInjected is every injected failure; errInjectedCount, which wraps it,
// the one a CountEach returns.
var (
	errInjected      = errors.New("injected host failure")
	errInjectedCount = fmt.Errorf("CountEach: %w", errInjected)
)

func (f *faultyStationary) Bytes() int { return f.inner.Bytes() }

func (f *faultyStationary) Release() { f.inner.Release() }

func (f *faultyStationary) Join(r *relation.Relation, c join.Collector) error {
	if f.failures.Add(-1) >= 0 {
		return errInjected
	}
	return f.inner.Join(r, c)
}

func (f *faultyStationary) CountEach(rKeys []uint64, counts []uint32) error {
	if f.failures.Add(-1) >= 0 {
		return errInjectedCount
	}
	return f.inner.CountEach(rKeys, counts)
}

// TestFailureReplaceRetry exercises the paper's §II-C replacement story
// end-to-end: a host fails mid-revolution, the run aborts, the operator
// replaces the host and re-stations, and the retried join succeeds with
// the full result.
func TestFailureReplaceRetry(t *testing.T) {
	var failures atomic.Int32
	failures.Store(1) // the first Process call on any host fails

	c, err := NewCluster(Config{
		Nodes:     3,
		Algorithm: &faultyAlgorithm{inner: hashjoin.Join{}, failures: &failures},
		Predicate: join.Equi{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()

	r := workload.Sequential("R", 600, 4)
	s := workload.Sequential("S", 600, 4)

	_, err = c.JoinRelations(r, s, false)
	if !errors.Is(err, errInjected) {
		t.Fatalf("first join: error = %v, want injected failure", err)
	}

	// The aborted run tore the ring down with it; a failed host's ring is
	// rebuilt by replacing every position (in a real deployment only the
	// dead machine would be swapped, but after Close the in-process links
	// are gone on all of them).
	c2, err := NewCluster(Config{Nodes: 3, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c2.Close()
	}()
	res, err := c2.JoinRelations(r, s, false)
	if err != nil {
		t.Fatalf("retried join: %v", err)
	}
	if res.Matches() != 600 {
		t.Errorf("retried join matches = %d, want 600", res.Matches())
	}
}

// TestReplaceHostKeepsRingUsable is the finer-grained variant: the failure
// is confined to one host's stationed state, the ring itself stays up, and
// ReplaceHost + re-Station recovers without rebuilding the cluster.
func TestReplaceHostKeepsRingUsable(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 3, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	r := workload.Sequential("R", 450, 4)
	s := workload.Sequential("S", 450, 4)
	if _, err := c.JoinRelations(r, s, false); err != nil {
		t.Fatal(err)
	}
	for host := 0; host < 3; host++ {
		if err := c.ReplaceHost(host); err != nil {
			t.Fatalf("replace host %d: %v", host, err)
		}
		res, err := c.JoinRelations(r, s, false)
		if err != nil {
			t.Fatalf("join after replacing host %d: %v", host, err)
		}
		if res.Matches() != 450 {
			t.Errorf("after replacing host %d: matches = %d, want 450", host, res.Matches())
		}
	}
}

// TestReplaceHostOverTCP: replacement with real sockets underneath.
func TestReplaceHostOverTCP(t *testing.T) {
	c, err := NewCluster(Config{
		Nodes:     3,
		Algorithm: hashjoin.Join{},
		Predicate: join.Equi{},
		Links:     ring.TCPLinks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
	}()
	r := workload.Sequential("R", 300, 4)
	s := workload.Sequential("S", 300, 4)
	if _, err := c.JoinRelations(r, s, false); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceHost(1); err != nil {
		t.Fatal(err)
	}
	res, err := c.JoinRelations(r, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches() != 300 {
		t.Errorf("matches = %d, want 300", res.Matches())
	}
}
