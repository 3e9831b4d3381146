// Package join defines the interfaces between cyclo-join and the local join
// algorithms that run on each Data Roundabout host.
//
// The paper's key architectural point (§IV-C) is that cyclo-join can
// orchestrate *any* single-host join algorithm: the algorithm never learns
// that the setup is distributed. We capture the required shape with two
// interfaces that mirror the paper's two processing phases:
//
//   - Algorithm.SetupStationary builds the reusable access structure over
//     the local stationary fragment S_i (hash tables for the radix join,
//     a sorted run for sort-merge join) — the "setup phase";
//   - Stationary.Join combines one rotating fragment R_j with the prepared
//     S_i — the "join phase", executed once per ring hop.
//
// Algorithm.SetupRotating reorganizes a rotating fragment once before it
// enters the ring (ordering R_j by hash bucket, or sorting it), implementing the
// paper's §IV-D trade: spend network bandwidth shipping reorganized data to
// save CPU on every subsequent hop.
package join

import (
	"fmt"

	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// Predicate is a join condition on a pair of keys.
type Predicate interface {
	// Matches reports whether an R tuple with key rKey joins with an S
	// tuple with key sKey.
	Matches(rKey, sKey uint64) bool
	// String names the predicate for diagnostics.
	String() string
}

// Equi is the equality predicate rKey == sKey.
type Equi struct{}

// Matches implements Predicate.
func (Equi) Matches(rKey, sKey uint64) bool { return rKey == sKey }

// String implements Predicate.
func (Equi) String() string { return "equi" }

// Band matches keys within a fixed distance: |rKey − sKey| ≤ Width.
// Band joins are the paper's motivating example of a non-equi predicate
// cyclo-join supports via sort-merge (§IV-A, [7]).
type Band struct {
	// Width is the maximum absolute key distance that still matches.
	Width uint64
}

// Matches implements Predicate.
func (b Band) Matches(rKey, sKey uint64) bool {
	if rKey >= sKey {
		return rKey-sKey <= b.Width
	}
	return sKey-rKey <= b.Width
}

// String implements Predicate.
func (b Band) String() string { return fmt.Sprintf("band(±%d)", b.Width) }

// Theta wraps an arbitrary key predicate; only the nested-loops algorithm
// accepts it.
type Theta struct {
	// Name describes the predicate in diagnostics.
	Name string
	// Fn evaluates the predicate.
	Fn func(rKey, sKey uint64) bool
}

// Matches implements Predicate.
func (t Theta) Matches(rKey, sKey uint64) bool { return t.Fn(rKey, sKey) }

// String implements Predicate.
func (t Theta) String() string {
	if t.Name != "" {
		return "theta(" + t.Name + ")"
	}
	return "theta"
}

// Options tunes a local join algorithm.
type Options struct {
	// Parallelism is the number of worker goroutines used in the join
	// phase (the paper uses all four cores of its quad-core Xeons). Zero
	// means 1.
	Parallelism int
	// L2CacheBytes is the cache the hash join sizes against (4 MB unified
	// L2 on the paper's testbed): a rotating fragment that, with the piece
	// of S it probes, fits in a quarter of it, as in [22], is left as it
	// lies instead of being reordered. Zero means DefaultL2Bytes.
	L2CacheBytes int
	// Flight is the span recorder algorithm-internal phases (build, probe,
	// sort, merge) report to. Nil means the process-wide trace.Flight()
	// (which records nothing unless enabled).
	Flight *trace.Recorder
	// TraceNode labels this host's join spans with its ring position.
	TraceNode int
}

// DefaultL2Bytes is the paper testbed's 4 MB unified L2 cache.
const DefaultL2Bytes = 4 << 20

// Workers returns the effective worker count.
func (o Options) Workers() int {
	if o.Parallelism <= 0 {
		return 1
	}
	return o.Parallelism
}

// L2Bytes returns the effective cache-size target.
func (o Options) L2Bytes() int {
	if o.L2CacheBytes <= 0 {
		return DefaultL2Bytes
	}
	return o.L2CacheBytes
}

// FlightRecorder returns the effective span recorder.
func (o Options) FlightRecorder() *trace.Recorder {
	if o.Flight == nil {
		return trace.Flight()
	}
	return o.Flight
}

// ErrUnsupportedPredicate is returned by SetupStationary when the algorithm
// cannot evaluate the given predicate (e.g. a band join on the hash join).
var ErrUnsupportedPredicate = fmt.Errorf("join: unsupported predicate")

// Algorithm is a local two-phase join implementation.
type Algorithm interface {
	// Name identifies the algorithm ("hash", "sortmerge", "nested").
	Name() string
	// Supports reports whether the algorithm can evaluate p.
	Supports(p Predicate) bool
	// SetupStationary runs the setup phase over the local stationary
	// fragment, returning the prepared access structure.
	SetupStationary(s *relation.Relation, p Predicate, opts Options) (Stationary, error)
	// SetupRotating reorganizes a rotating fragment before its first ring
	// hop. The returned relation replaces the fragment's contents; it must
	// contain the same multiset of tuples. Algorithms with no useful
	// reorganization return the input unchanged.
	SetupRotating(r *relation.Relation, p Predicate, opts Options) (*relation.Relation, error)
}

// Stationary is a prepared stationary fragment, ready to be joined against
// any number of rotating fragments.
type Stationary interface {
	// Join runs the join phase: combine the rotating fragment r with the
	// prepared stationary fragment, emitting every match to c exactly
	// once, one Emit at a time or in Blocks through EmitBlock.
	// Implementations may emit concurrently from several goroutines; c
	// must be safe for concurrent use.
	//
	// When c is a MatchCounter, r may arrive without its payloads (cyclo-join
	// rotates the key column alone to collectors that only count), so an
	// implementation takes r's payload width from r on every call, never
	// from an earlier fragment or from SetupRotating's input.
	Join(r *relation.Relation, c Collector) error
	// Bytes estimates the in-memory size of the access structure, used to
	// account for the cost of shipping it over the ring in setup-reuse
	// mode (§IV-D).
	Bytes() int
}
