// Package hashjoin implements the radix hash join of Manegold, Boncz and
// Kersten [22] that the paper ports from MonetDB (§IV-C.1): cluster so
// finely that a probe touches one small, contiguous, cache-resident piece
// of S, and ship R already clustered so that every hop reuses that work
// (§IV-D).
//
// The kernel is package layout under the hash rule: a key's bucket is the
// top B bits of its Fibonacci hash, B chosen for one to two tuples a bucket,
// and a probe for r asks for [r, r] with a window of four keys, so only a
// bucket longer than that (a few probes in a hundred on uniform keys) is
// walked. The rotating fragment is ordered by the same hash, to as many bits
// as its own size would give it as a stationary fragment: a prefix order of
// the bucket order of every stationary fragment, whatever its size, so the
// probes of one fragment walk S's directory and key column front to back.
package hashjoin

import (
	"fmt"
	"math/bits"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/layout"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// Their ratio answers "is a hot key hurting the probe": 0.02 to 0.08 on
// uniform keys, and the share of probes that hit a heavy bucket under skew.
var (
	mProbes   = metrics.Default().Counter("hashjoin_probes_total", "rotating tuples probed against a stationary fragment")
	mOverflow = metrics.Default().Counter("hashjoin_window_overflow_total", "probes whose bucket ran past the fixed comparison window")
)

// Join implements join.Algorithm with a radix hash join.
// The zero value is ready to use.
type Join struct{}

var _ join.Algorithm = Join{}

// Name implements join.Algorithm.
func (Join) Name() string { return "hash" }

// Supports implements join.Algorithm: hash joins inherently support only
// equality predicates (§IV-C).
func (Join) Supports(p join.Predicate) bool {
	_, ok := p.(join.Equi)
	return ok
}

// SetupStationary implements join.Algorithm: order s by bucket id and build
// the bucket directory. A relation of 2³² rows or more is an error.
func (j Join) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	if !j.Supports(p) {
		return nil, fmt.Errorf("%w: hash join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
	bs := opts.FlightRecorder().Shard(opts.TraceNode, "join/build")
	bpd := bs.Begin(trace.PhaseBuild)
	bpd.Arg = int64(s.Len())
	st, err := layout.Station(s, rule(s.Keys()), layout.Probe{Window: window, Phase: trace.PhaseProbe, Probes: mProbes, Overflow: mOverflow}, opts)
	bs.End(bpd)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// SetupRotating implements join.Algorithm: order the rotating fragment as a
// stationary fragment of its size would be ordered, so that its probes walk
// any stationary fragment front to back. The order is purely an optimization
// — the probe is order-independent — which is why a fragment left as it lies,
// or ordered for another size, still joins correctly.
func (j Join) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	if !j.Supports(p) {
		return nil, fmt.Errorf("%w: hash join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
	return layout.Rotating(r, rule, opts)
}

// window is W, the keys a probe compares without looking at where its bucket
// ends: four, for one to two tuples a bucket. fib is 2⁶⁴ divided by the
// golden ratio, relation.HashKey's multiplier: the top B ≤ 29 bits of k·fib
// are the top B bits of relation.HashKey(k).
const window, fib = 4, 0x9e3779b97f4a7c15

// rule is the bucket-id rule for keys: the top dirBits(len(keys)) bits of a
// key's Fibonacci hash.
func rule(keys []uint64) layout.Rule {
	b := dirBits(len(keys))
	return layout.Rule{Mul: fib, Shift: 64 - b, Buckets: 1 << b}
}

// dirBits is B, the width of a bucket id, for n tuples: ⌈log₂ n⌉ − 1, which
// puts between one and two tuples in the average bucket, so that a bucket
// longer than the window is rare.
func dirBits(n int) uint {
	if n <= 2 {
		return 0
	}
	return uint(bits.Len(uint(n-1)) - 1) // ⌈log₂ n⌉ = Len(n-1)
}
