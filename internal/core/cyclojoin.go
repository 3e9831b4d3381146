// Package core implements cyclo-join (§IV): the distributed join strategy
// that keeps one relation stationary — partitioned as S_i across the Data
// Roundabout hosts — while the other relation's fragments R_j rotate around
// the ring. Every host joins each fragment flowing by against its local S_i
// with an ordinary single-host join algorithm; after one revolution the
// union of the per-host results is the complete join R ⋈ S, available as a
// distributed table.
//
// The two paper phases map onto two calls:
//
//   - Station runs the setup phase: in parallel on every host, build the
//     access structure over S_i (hash tables / sorted runs) and reorganize
//     the local rotating fragments (radix-clustering / sorting). Because
//     the reorganized fragments travel the ring, this work is invested
//     once and amortized over every hop (§IV-D).
//   - Rotate runs the join phase: one full revolution of the rotating
//     fragments. It can be called repeatedly against the same stationed
//     state — that is the setup-reuse trade at the heart of §V-E.
//
// Join combines both for the common case.
//
// Station takes the data where it lies, as the paper does (§II-C). For
// equi-joins StationByKey is the other setup phase: it places any number of
// stationary relations by key hash, so that one revolution joins the rotating
// relation with all of them and each rotating tuple probes one host only.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cyclojoin/internal/join"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
)

// Config describes a cyclo-join cluster.
type Config struct {
	// Nodes is the number of ring hosts.
	Nodes int
	// Algorithm is the local join algorithm (hash, sort-merge, nested).
	Algorithm join.Algorithm
	// Predicate is the join condition; the algorithm must support it.
	Predicate join.Predicate
	// Opts tunes the local algorithm (parallelism, cache target).
	Opts join.Options
	// Ring tunes the transport (buffer slots and sizes). Ring.Nodes is
	// overridden by Nodes.
	Ring ring.Config
	// Links selects the transport; nil means in-process links.
	Links ring.LinkFactory
	// Collectors builds the per-host result collector for each Rotate
	// call; nil means one join.Counter per host. RotateInto takes the
	// collectors per revolution instead.
	Collectors func(node int) join.Collector
	// SkipRotatingSetup disables the reorganization of rotating fragments
	// (for the setup-reuse ablation); the join output is unchanged, only
	// the locality of the join phase suffers.
	SkipRotatingSetup bool
}

func (c Config) validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cyclojoin: %d nodes", c.Nodes)
	case c.Algorithm == nil:
		return errors.New("cyclojoin: nil algorithm")
	case c.Predicate == nil:
		return errors.New("cyclojoin: nil predicate")
	case !c.Algorithm.Supports(c.Predicate):
		return fmt.Errorf("cyclojoin: algorithm %q does not support predicate %s: %w",
			c.Algorithm.Name(), c.Predicate, join.ErrUnsupportedPredicate)
	}
	return nil
}

// stationed is what one Station call left on a host. Station swaps it in
// whole, so a revolution never joins with the sides of one Station under the
// placement of another.
type stationed struct {
	// sides are the host's prepared stationary pieces in chain order: Station
	// sets up one, StationByKey one per stationary relation. A fragment
	// flowing by probes sides[0]; its matches probe sides[1], and so on.
	sides []join.Stationary
	// byKey marks key placement: every side holds exactly the keys
	// relation.Owner gives this host, and the rotating fragments are ordered
	// by owner, so the host joins only its own contiguous slice of each.
	byKey bool
}

// hostState is the mutable per-node state the ring processor reads.
type hostState struct {
	node, nodes int

	mu sync.Mutex
	st *stationed
	// head is what sides[0] emits into this revolution: the revolution's
	// collector on this host or, in front of further sides, the first link
	// of links, the chain that leads there.
	head  join.Collector
	links []*link
}

func (h *hostState) current() (*stationed, join.Collector, []*link) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st, h.head, h.links
}

// process is the host's join entity: it joins a fragment flowing by against
// the stationed state into this revolution's collector. The fragment may be
// key-only — RotateInto ships no payloads to collectors that only count.
func (h *hostState) process(frag *relation.Fragment) error {
	st, head, links := h.current()
	if st == nil {
		return errors.New("cyclojoin: fragment arrived before Station")
	}
	rel := frag.Rel
	if st.byKey {
		var err error
		if rel, err = ownerSlice(rel, h.node, h.nodes); err != nil {
			return err
		}
	}
	if err := st.sides[0].Join(rel, head); err != nil {
		return err
	}
	// Whatever this fragment left in the chain's batches joins now, front to
	// back, so a hop's matches — and its errors — are complete when it ends.
	for _, l := range links {
		if err := l.flush(); err != nil {
			return err
		}
	}
	return nil
}

// ownerSlice returns the tuples of rel that relation.Owner gives host `node`
// of `nodes`: rel is ordered by owner (StationByKey does that), so they are
// one contiguous range, found by two binary searches and aliased.
func ownerSlice(rel *relation.Relation, node, nodes int) (*relation.Relation, error) {
	keys := rel.Keys()
	lo := sort.Search(len(keys), func(i int) bool { return relation.Owner(keys[i], nodes) >= node })
	hi := lo + sort.Search(len(keys)-lo, func(i int) bool { return relation.Owner(keys[lo+i], nodes) > node })
	return rel.Slice(lo, hi)
}

// What a revolution ships answers "where did the bytes go" before the ring's
// byte counters are read: keys when every collector only counts, whole
// tuples otherwise.
var (
	mKeyRevolutions   = metrics.Default().Counter("core_revolutions_total", "cyclo-join revolutions by what the rotating fragments carried", "ships", "keys")
	mTupleRevolutions = metrics.Default().Counter("core_revolutions_total", "cyclo-join revolutions by what the rotating fragments carried", "ships", "tuples")
)

// How the stationary side was placed answers "one revolution or one per
// side": key placement joins any number of sides in one.
var (
	mPositionStations = metrics.Default().Counter("core_stations_total", "cyclo-join setup phases by how the stationary data was placed", "placement", "position")
	mKeyStations      = metrics.Default().Counter("core_stations_total", "cyclo-join setup phases by how the stationary data was placed", "placement", "key")
)

// Cluster is a running cyclo-join deployment: a Data Roundabout ring whose
// join entities probe incoming fragments against stationed local state.
type Cluster struct {
	cfg   Config
	ring  *ring.Ring
	hosts []*hostState

	mu       sync.Mutex
	rotating [][]*relation.Fragment // reorganized fragments, by home node
	// rotatingKeys are the same fragments projected onto their key column
	// (relation.KeysOnly: aliases, no tuple copied), each its own Fragment
	// because the ring counts hops in the struct.
	rotatingKeys [][]*relation.Fragment
	setupDur     time.Duration
	closed       bool
}

// Ring exposes the cluster's transport ring as a live-telemetry source:
// internal/health samples its Stats on a ticker. Callers must
// not Close or Run the ring directly — the cluster owns its lifecycle.
func (c *Cluster) Ring() *ring.Ring { return c.ring }

// joinOpts derives host i's join options: label the host's algorithm spans
// with its ring position, and default the algorithm's flight recorder to the
// ring's so one recorder sees the whole cross-layer picture.
func (c *Cluster) joinOpts(i int) join.Options {
	opts := c.cfg.Opts
	opts.TraceNode = i
	if opts.Flight == nil {
		opts.Flight = c.cfg.Ring.Flight
	}
	return opts
}

// NewCluster builds the ring. No data is stationed yet.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, hosts: make([]*hostState, cfg.Nodes)}
	procs := make([]ring.Processor, cfg.Nodes)
	for i := range procs {
		h := &hostState{node: i, nodes: cfg.Nodes}
		c.hosts[i] = h
		procs[i] = ring.ProcessorFunc(h.process)
	}
	rcfg := cfg.Ring
	rcfg.Nodes = cfg.Nodes
	r, err := ring.New(rcfg, cfg.Links, procs)
	if err != nil {
		return nil, fmt.Errorf("cyclojoin: build ring: %w", err)
	}
	c.ring = r
	return c, nil
}

// Station runs the setup phase. sFrags[i] is the stationary piece S_i held
// by host i; rFrags[i] are the rotating fragments initially homed at host
// i. Hosts run their setup concurrently, as the cluster's machines would.
// The data joins where it lies: every fragment probes every host.
func (c *Cluster) Station(sFrags []*relation.Fragment, rFrags [][]*relation.Fragment) error {
	if len(sFrags) != c.cfg.Nodes || len(rFrags) != c.cfg.Nodes {
		return fmt.Errorf("cyclojoin: Station with %d stationary and %d rotating slots for %d nodes",
			len(sFrags), len(rFrags), c.cfg.Nodes)
	}
	if err := c.station([][]*relation.Fragment{sFrags}, rFrags, false); err != nil {
		return err
	}
	mPositionStations.Inc()
	return nil
}

// StationByKey runs the setup phase for an equi-join of the rotating
// fragments with every relation of sides at once: R ⋈ sides[0] ⋈ sides[1] ⋈ …
// on the one join key, in a single revolution. It places each side by key
// hash (relation.PartitionByHash), so host i holds, of every side, exactly
// the keys relation.Owner gives it, and sets up one join.Stationary per
// side there. RotateInto then chains them on each host: a fragment's matches
// with sides[0] probe sides[1] in small batches, and so on; the collectors
// receive the matches of the last side, laid out as a left-deep sequence of
// join.Materializer steps would lay them out (rKey, and rPay ‖ key ‖ pay₀ ‖
// key ‖ pay₁ … as rPay). No intermediate result exists at any point.
//
// Because a key's matches live on one host only, the rotating fragments are
// additionally ordered by owner and a host probes just its own slice of each:
// a revolution probes |R| tuples against sides[0], not nodes·|R|. The price
// is that placement follows the keys: a key that makes up half of a side
// puts half of that side's probe work on one host.
func (c *Cluster) StationByKey(sides []*relation.Relation, rFrags [][]*relation.Fragment) error {
	if _, ok := c.cfg.Predicate.(join.Equi); !ok {
		return fmt.Errorf("cyclojoin: StationByKey needs an equi-join, not %s: only equal keys share a host", c.cfg.Predicate)
	}
	if len(sides) == 0 || len(rFrags) != c.cfg.Nodes {
		return fmt.Errorf("cyclojoin: StationByKey with %d stationary sides and %d rotating slots for %d nodes",
			len(sides), len(rFrags), c.cfg.Nodes)
	}
	placed := make([][]*relation.Fragment, len(sides))
	errs := make([]error, len(sides))
	var wg sync.WaitGroup
	for j, side := range sides {
		wg.Add(1)
		go func(j int, side *relation.Relation) {
			defer wg.Done()
			placed[j], errs[j] = relation.PartitionByHash(side, c.cfg.Nodes)
		}(j, side)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("cyclojoin: place by key: %w", err)
	}
	if err := c.station(placed, rFrags, true); err != nil {
		return err
	}
	mKeyStations.Inc()
	return nil
}

// station is the setup phase proper: host i sets up sides[j][i] for every j
// and reorganizes rFrags[i]. The stationed state replaces the previous
// Station's, on every host, only once every host has succeeded.
func (c *Cluster) station(sides [][]*relation.Fragment, rFrags [][]*relation.Fragment, byKey bool) error {
	start := time.Now()
	stations := make([]*stationed, c.cfg.Nodes)
	rotated := make([][]*relation.Fragment, c.cfg.Nodes)
	keyed := make([][]*relation.Fragment, c.cfg.Nodes)
	errs := make([]error, c.cfg.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := c.joinOpts(i)
			st := &stationed{sides: make([]join.Stationary, len(sides)), byKey: byKey}
			for j, side := range sides {
				var err error
				st.sides[j], err = c.cfg.Algorithm.SetupStationary(side[i].Rel, c.cfg.Predicate, opts)
				if err != nil {
					errs[i] = fmt.Errorf("cyclojoin: host %d: setup stationary: %w", i, err)
					return
				}
			}
			stations[i] = st

			rotated[i] = make([]*relation.Fragment, len(rFrags[i]))
			keyed[i] = make([]*relation.Fragment, len(rFrags[i]))
			for j, f := range rFrags[i] {
				rel := f.Rel
				if !c.cfg.SkipRotatingSetup {
					var err error
					rel, err = c.cfg.Algorithm.SetupRotating(f.Rel, c.cfg.Predicate, opts)
					if err != nil {
						errs[i] = fmt.Errorf("cyclojoin: host %d: setup rotating fragment %d: %w", i, f.Index, err)
						return
					}
				}
				if byKey {
					// Not an optimization, unlike SetupRotating: a host joins
					// only its owner's range of a fragment. Stable, so the
					// kernel's order survives inside each range.
					rel = relation.OrderByOwner(rel, c.cfg.Nodes)
				}
				rotated[i][j] = &relation.Fragment{Rel: rel, Index: f.Index, Of: f.Of}
				keyed[i][j] = &relation.Fragment{Rel: rel.KeysOnly(), Index: f.Index, Of: f.Of}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, h := range c.hosts {
		h.mu.Lock()
		h.st = stations[i]
		h.mu.Unlock()
	}
	c.mu.Lock()
	c.rotating, c.rotatingKeys = rotated, keyed
	c.setupDur = time.Since(start)
	c.mu.Unlock()
	return nil
}

// Result reports one Rotate's outcome.
type Result struct {
	// SetupTime is the wall-clock duration of the most recent Station.
	SetupTime time.Duration
	// JoinTime is the wall-clock duration of the revolution.
	JoinTime time.Duration
	// Collectors holds each host's result collector — together they are
	// the distributed join result.
	Collectors []join.Collector
	// Nodes snapshots the ring counters (sync time, traffic) after the
	// run.
	Nodes []ring.NodeStats
	// Partial is non-nil when the revolution ended early: link recovery
	// was enabled but a link kept failing past its retry budget, and the
	// ring degraded gracefully. The collectors then hold every match
	// produced by the fragments (and hops) that did complete.
	Partial *ring.PartialError
}

// Matches sums the match counts if the collectors are join.Counters
// (the default). It returns -1 when a custom collector type is in use.
func (r *Result) Matches() int64 {
	var total int64
	for _, c := range r.Collectors {
		counter, ok := c.(*join.Counter)
		if !ok {
			return -1
		}
		total += counter.Count()
	}
	return total
}

// Rotate runs one full revolution of the stationed rotating fragments and
// returns the per-host results. It may be called repeatedly; each call
// reuses the setup-phase investment.
func (c *Cluster) Rotate() (*Result, error) {
	return c.RotateInto(c.cfg.Collectors)
}

// RotateInto is Rotate with this revolution's collectors: collect builds
// each host's collector, nil meaning one join.Counter per host. A caller
// that runs different joins on one cluster — a count, then a materialized
// intermediate — chooses per revolution what Config.Collectors fixes for
// the cluster's lifetime.
//
// What rotates follows from the collectors: when every one is a
// join.MatchCounter — it needs the number of matches, not the tuples — the
// revolution ships the rotating fragments' key column alone; any other
// collector gets whole tuples. The stationed state serves both, so a count,
// a materialization and another count on one Station each ship what they
// read.
//
// After StationByKey the collectors stand at the end of each host's probe
// chain: they receive the matches with the last side.
func (c *Cluster) RotateInto(collect func(node int) join.Collector) (*Result, error) {
	c.mu.Lock()
	rotating, rotatingKeys := c.rotating, c.rotatingKeys
	setup := c.setupDur
	c.mu.Unlock()
	if rotating == nil {
		return nil, errors.New("cyclojoin: Rotate before Station")
	}
	collectors := make([]join.Collector, c.cfg.Nodes)
	countOnly := true
	for i := range collectors {
		if collect != nil {
			collectors[i] = collect(i)
		} else {
			collectors[i] = &join.Counter{}
		}
		if _, ok := collectors[i].(join.MatchCounter); !ok {
			countOnly = false
		}
	}
	for i, h := range c.hosts {
		h.mu.Lock()
		if h.st != nil {
			h.head, h.links = chain(h.st.sides, collectors[i], countOnly)
		}
		h.mu.Unlock()
	}
	if countOnly {
		rotating = rotatingKeys
		mKeyRevolutions.Inc()
	} else {
		mTupleRevolutions.Inc()
	}
	start := time.Now()
	if err := c.ring.Run(rotating); err != nil {
		var pe *ring.PartialError
		if !errors.As(err, &pe) {
			return nil, fmt.Errorf("cyclojoin: rotate: %w", err)
		}
		// Bounded-retry exhaustion: the ring gave up on a link but kept
		// every completed hop's work. Surface the partial result WITH the
		// error — callers decide whether an incomplete join is usable.
		return &Result{
			SetupTime:  setup,
			JoinTime:   time.Since(start),
			Collectors: collectors,
			Nodes:      c.ring.Stats(nil),
			Partial:    pe,
		}, fmt.Errorf("cyclojoin: rotate: %w", err)
	}
	return &Result{
		SetupTime:  setup,
		JoinTime:   time.Since(start),
		Collectors: collectors,
		Nodes:      c.ring.Stats(nil),
	}, nil
}

// Join is Station followed by one Rotate.
func (c *Cluster) Join(sFrags []*relation.Fragment, rFrags [][]*relation.Fragment) (*Result, error) {
	if err := c.Station(sFrags, rFrags); err != nil {
		return nil, err
	}
	return c.Rotate()
}

// JoinRelations partitions both relations evenly across the hosts (the
// paper's starting condition: data pre-distributed, S reasonably even) and
// runs Station + Rotate. S is stationary, R rotates. If rotateSmaller is
// set and R is larger than S, the roles are swapped, following the §IV-B
// guidance to rotate the smaller input; note that swapping exchanges the
// rKey/sKey sides seen by collectors.
func (c *Cluster) JoinRelations(r, s *relation.Relation, rotateSmaller bool) (*Result, error) {
	if rotateSmaller && r.Bytes() > s.Bytes() {
		r, s = s, r
	}
	sFrags, err := relation.Partition(s, c.cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("cyclojoin: partition stationary: %w", err)
	}
	rParts, err := relation.Partition(r, c.cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("cyclojoin: partition rotating: %w", err)
	}
	rFrags := make([][]*relation.Fragment, c.cfg.Nodes)
	for i, f := range rParts {
		rFrags[i] = []*relation.Fragment{f}
	}
	return c.Join(sFrags, rFrags)
}

// ReplaceHost swaps the host at position i for a fresh one (idle ring
// only). The new host has no stationed state until the next Station.
func (c *Cluster) ReplaceHost(i int) error {
	if i < 0 || i >= c.cfg.Nodes {
		return fmt.Errorf("cyclojoin: replace host %d of %d", i, c.cfg.Nodes)
	}
	h := &hostState{node: i, nodes: c.cfg.Nodes}
	c.hosts[i] = h
	if err := c.ring.ReplaceNode(i, ring.ProcessorFunc(h.process)); err != nil {
		return fmt.Errorf("cyclojoin: replace host %d: %w", i, err)
	}
	// Stationed state died with the host; require a fresh Station.
	c.mu.Lock()
	c.rotating, c.rotatingKeys = nil, nil
	c.mu.Unlock()
	return nil
}

// Close shuts the ring down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.ring.Close()
}
