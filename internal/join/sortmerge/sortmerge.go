// Package sortmerge implements the sort-merge band join of §IV-C.2.
//
// The two-phase shape — order a fragment once, merge once per hop — is the
// paper's; the order and the merge are package layout's under the key-prefix
// rule: bucket b holds the keys k with (k − min) >> shift = b. The bucket id
// is monotone in the key, so the band probe needs S in bucket order, not in
// key order: a key in a bucket before that of r ⊖ w is below r ⊖ w, and one
// in a bucket after that of r ⊕ w is above r ⊕ w. The setup therefore takes
// a fragment's minimum and maximum in one pass over its keys and orders it
// by that prefix; it sorts nothing inside a bucket. (The paper calls the C
// library's qsort here and names that call as its own room for
// improvement.) A probe for r asks for [r ⊖ w, r ⊕ w], saturating at both
// ends of the key domain; w = 0 is the equi-join.
//
// A probe's matches reach an emitting collector in S's bucket order, which
// is not ascending s, and a heavy key that fills one bucket costs O(bucket)
// per probe past the window, as in the hash join:
// sortmerge_window_overflow_total / sortmerge_probes_total shows how often.
package sortmerge

import (
	"fmt"
	"math/bits"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/layout"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// Their ratio answers "is a hot key or a wide band hurting the merge".
var (
	mProbes   = metrics.Default().Counter("sortmerge_probes_total", "rotating tuples merged against a stationary fragment")
	mOverflow = metrics.Default().Counter("sortmerge_window_overflow_total", "probes whose candidates ran past the fixed comparison window")
)

// Join implements join.Algorithm with a sort-merge join. The zero value is
// ready to use.
type Join struct{}

var _ join.Algorithm = Join{}

// Name implements join.Algorithm.
func (Join) Name() string { return "sortmerge" }

// Supports implements join.Algorithm: equi-joins and band joins (§IV-C.2).
func (Join) Supports(p join.Predicate) bool {
	_, err := bandWidth(p)
	return err == nil
}

// bandWidth is the predicate-to-range map: a probe for r asks for
// [r ⊖ w, r ⊕ w].
func bandWidth(p join.Predicate) (uint64, error) {
	switch pred := p.(type) {
	case join.Equi:
		return 0, nil
	case join.Band:
		return pred.Width, nil
	default:
		return 0, fmt.Errorf("%w: sort-merge join cannot evaluate %s", join.ErrUnsupportedPredicate, p)
	}
}

// SetupStationary implements join.Algorithm: order s by key prefix, using
// the configured parallelism, and keep the directory.
func (Join) SetupStationary(s *relation.Relation, p join.Predicate, opts join.Options) (join.Stationary, error) {
	w, err := bandWidth(p)
	if err != nil {
		return nil, err
	}
	ss := opts.FlightRecorder().Shard(opts.TraceNode, "join/sort")
	spd := ss.Begin(trace.PhaseSort)
	spd.Arg = int64(s.Len())
	st, err := layout.Station(s, rule(s.Keys()), layout.Probe{Window: window, Width: w, Phase: trace.PhaseMerge, Probes: mProbes, Overflow: mOverflow}, opts)
	ss.End(spd)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// SetupRotating implements join.Algorithm: order r by its own key prefix.
// The ordered fragment then circulates the ring, so every host's probes walk
// its directory in order — this is the paper's "re-organized data
// (sorted ...)" setup-reuse.
func (Join) SetupRotating(r *relation.Relation, p join.Predicate, opts join.Options) (*relation.Relation, error) {
	if _, err := bandWidth(p); err != nil {
		return nil, err
	}
	return layout.Rotating(r, rule, opts)
}

// window is W, the keys a probe compares without looking at where its
// candidates end, and perBucket the fewest tuples the average bucket holds:
// a fragment has at most n/perBucket buckets, so between perBucket and twice
// that many tuples share one on uniform keys — which the window holds with a
// band ±2 to spare — and the directory costs at most 4/perBucket bytes a
// tuple.
const window, perBucket = 8, 3

// rule is the bucket-id rule for keys: the smallest key prefix over their
// range that leaves at most len(keys)/perBucket buckets.
func rule(keys []uint64) layout.Rule {
	lo, hi := ^uint64(0), uint64(0)
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	lo = min(lo, hi) // no keys: one bucket
	most := uint64(max(len(keys)/perBucket, 1))
	shift := uint(bits.Len64((hi - lo) / most))
	return layout.Rule{Base: lo, Mul: 1, Shift: shift, Buckets: int((hi-lo)>>shift) + 1}
}
