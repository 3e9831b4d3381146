// Package core implements cyclo-join (§IV): the distributed join strategy
// that keeps one relation stationary — partitioned as S_i across the Data
// Roundabout hosts — while the other relation's fragments R_j rotate around
// the ring. Every host joins each fragment flowing by against its local S_i
// with an ordinary single-host join algorithm; after one revolution the
// union of the per-host results is the complete join R ⋈ S, available as a
// distributed table.
//
// The two paper phases map onto handles the caller keeps:
//
//   - The setup phase builds them, in parallel on every host: a Side is one
//     stationary relation with an access structure (a bucket directory over
//     ordered columns) over each host's share (SetupSide, SetupSideByKey); a
//     Rotating is the rotating fragments reorganized on their home hosts
//     (ordered by hash or key prefix — SetupRotating). Because the
//     reorganized fragments travel the ring, this work is invested once and
//     amortized over every hop (§IV-D). A revolution whose collectors only
//     count ships and reads keys alone, so the setup orders only keys: a
//     stationary share places its payloads, and a Rotating orders its whole
//     tuples, the first time a collector that reads them needs them.
//   - Revolve runs the join phase: one full revolution of a Rotating against
//     an ordered list of Sides. The hosts read the handles for that
//     revolution only, so a cluster serves any number of stationed sides, a
//     handle serves any number of revolutions — the setup-reuse trade at the
//     heart of §V-E — and dropping a handle leaves its memory to the garbage
//     collector. Release hands it back for a later setup to order into
//     instead; the caller then uses the handle no more.
//
// Station, Rotate and JoinRelations are the one-handle-set form of the same
// calls for data placed by position: Station sets up the handles that Rotate
// then revolves into Config.Collectors. The cluster owns those: it releases
// them when a later Station or ReplaceHost replaces them, or Close ends the
// cluster, once no Rotate still reads them, so a cluster that stations again
// and again orders into the memory of the handles it replaced. Handles a
// failed revolution read are left to the garbage collector: a stalled join
// entity may still read them.
//
// Placement is a property of a handle. By position the data joins where it
// lies, as in the paper (§II-C): every fragment probes every host. By key,
// for equi-joins, stationary relations are placed by key hash, so one
// revolution joins the rotating relation with any number of them and each
// rotating tuple probes one host only.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/layout"
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
	// call; nil means one join.Counter per host. Revolve takes the
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

// Placement is how a handle's data sits on the ring. All handles of one
// revolution share it.
type Placement uint8

const (
	// ByPosition stations data where it lies: host i holds the i-th piece,
	// and every rotating fragment probes every host. One side per
	// revolution.
	ByPosition Placement = iota
	// ByKey places stationary data by key hash (relation.PartitionByHash):
	// host i holds exactly the keys relation.Owner gives it, and the
	// rotating fragments are ordered by owner, so a host probes only its own
	// contiguous slice of each. Equi-joins only.
	ByKey
)

// A revolution refuses a handle it cannot read with one of these errors.
var (
	// ErrForeignHandle: the handle was set up on another cluster.
	ErrForeignHandle = errors.New("cyclojoin: handle set up on another cluster")
	// ErrStaleHandle: a host was replaced since the handle was set up, and
	// the host's share of it died with the host.
	ErrStaleHandle = errors.New("cyclojoin: handle set up before a host was replaced")
	// ErrMixedPlacement: the handles of one revolution are placed
	// differently.
	ErrMixedPlacement = errors.New("cyclojoin: handles of one revolution placed differently")
)

// origin is what a revolution checks before it reads a handle.
type origin struct {
	cluster *Cluster
	// replaced is the cluster's count of replaced hosts when the handle was
	// set up.
	replaced  uint64
	placement Placement
}

// Side is one stationary relation set up on every host of a cluster: each
// host's access structure over its share. It serves any number of
// revolutions until a host is replaced.
type Side struct {
	origin
	hosts []join.Stationary // by host
}

// Rotating is a rotating relation after the setup phase: its fragments'
// key columns, reorganized on their home hosts, and the fragments
// themselves, reorganized whole on the first revolution that ships tuples.
// It serves any number of revolutions until a host is replaced, one
// revolution at a time: the ring counts a fragment's hops in the fragment.
type Rotating struct {
	origin
	// rotatingKeys are the fragments' key columns, reorganized, each its own
	// Fragment, by home node: what a revolution of counters ships.
	rotatingKeys [][]*relation.Fragment
	// fragments are the caller's fragments, by home node, until ordering
	// reorganizes them whole into rotating, or fails with orderErr; then
	// nil.
	fragments [][]*relation.Fragment
	ordering  sync.Once
	rotating  [][]*relation.Fragment
	orderErr  error
}

// Release hands the memory of every host's access structure back for a
// later setup to reuse. Call it once no revolution reads the side and none
// will; a second call does nothing.
func (s *Side) Release() {
	for i, st := range s.hosts {
		if st != nil {
			st.Release()
			s.hosts[i] = nil
		}
	}
}

// Release hands back the memory of the fragments the setup reorganized, key
// columns and whole tuples, for a later setup to reuse; the caller's own
// fragments are never touched. Call it once no revolution reads the handle
// and none will.
func (r *Rotating) Release() {
	r.ordering.Do(func() {}) // a later revolution must not order whole tuples
	for _, frags := range [][][]*relation.Fragment{r.rotatingKeys, r.rotating} {
		for _, host := range frags {
			for _, f := range host {
				layout.ReleaseRotating(f.Rel)
			}
		}
	}
	r.rotatingKeys, r.rotating, r.fragments = nil, nil, nil
}

// stage is the handle set the last Station set up for Rotate.
type stage struct {
	rot   *Rotating
	sides []*Side
	// took is how long the setup took.
	took time.Duration
	// pins counts the Rotate calls reading the handles. retired marks a
	// stage a later Station, ReplaceHost or Close replaced: the last Rotate
	// to unpin it releases it. failed marks a stage a failed revolution
	// read, which nothing releases.
	pins            int
	retired, failed bool
}

// unpin ends a Rotate's read of st, reporting whether the handles are now
// due for release. The caller holds c.mu.
func (st *stage) unpin(failed bool) bool {
	st.pins--
	st.failed = st.failed || failed
	return st.retired && st.pins == 0 && !st.failed
}

// retire marks st replaced, reporting whether the handles are now due for
// release. The caller holds c.mu.
func (st *stage) retire() bool {
	if st == nil || st.retired {
		return false
	}
	st.retired = true
	return st.pins == 0 && !st.failed
}

// release hands the stage's handles back.
func (st *stage) release() {
	st.rot.Release()
	for _, s := range st.sides {
		s.Release()
	}
}

// hostState is one ring host's join entity. Between revolutions it holds
// nothing: a revolution hands it its share of the sides and the collectors
// their matches go to, and takes them back when it ends.
type hostState struct {
	node, nodes int

	mu sync.Mutex
	// sides are the host's shares of the revolution's sides in chain order:
	// a fragment flowing by probes sides[0]; its matches probe sides[1],
	// and so on. Nil between revolutions.
	sides []join.Stationary
	// byKey marks key placement: the host joins only its owner's slice of
	// each fragment.
	byKey bool
	// head is what sides[0] emits into: the revolution's collector on this
	// host or, in front of further sides, the first link of links, the
	// chain that leads there. A count chain has no links: head is the
	// revolution's join.MatchCounter, and tally the chain's scratch.
	head  join.Collector
	links []*link
	tally tally
}

func (h *hostState) set(sides []join.Stationary, byKey bool, head join.Collector, links []*link) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sides, h.byKey, h.head, h.links = sides, byKey, head, links
}

// process is the host's join entity: it joins a fragment flowing by against
// the revolution's sides into its collector. The fragment may be key-only —
// a revolution ships no payloads to collectors that only count.
func (h *hostState) process(frag *relation.Fragment) error {
	h.mu.Lock()
	sides, byKey, head, links := h.sides, h.byKey, h.head, h.links
	h.mu.Unlock()
	if sides == nil {
		return errors.New("cyclojoin: fragment arrived outside a revolution")
	}
	rel := frag.Rel
	if byKey {
		var err error
		if rel, err = ownerSlice(rel, h.node, h.nodes); err != nil {
			return err
		}
	}
	if counter, ok := head.(join.MatchCounter); ok && len(sides) > 1 {
		return h.tally.count(rel.Keys(), sides, counter)
	}
	if err := sides[0].Join(rel, head); err != nil {
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
// of `nodes`: rel is ordered by owner (SetupRotating does that under ByKey),
// so they are one contiguous range, found by two binary searches and aliased.
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

// How the stationary data was placed answers "one revolution or one per
// side": key placement joins any number of sides in one. One count per
// Station, SetupSide or SetupSideByKey.
var (
	mPositionStations = metrics.Default().Counter("core_stations_total", "cyclo-join setup phases by how the stationary data was placed", "placement", "position")
	mKeyStations      = metrics.Default().Counter("core_stations_total", "cyclo-join setup phases by how the stationary data was placed", "placement", "key")
)

// Cluster is a running cyclo-join deployment: a Data Roundabout ring whose
// join entities probe incoming fragments against stationed sides. It runs
// one revolution at a time.
type Cluster struct {
	cfg   Config
	ring  *ring.Ring
	hosts []*hostState

	mu sync.Mutex
	// replacements counts ReplaceHost calls: a handle set up under an
	// earlier count is stale.
	replacements uint64
	// staged holds the handles the last Station set up, for Rotate: nil
	// before the first and after ReplaceHost or Close.
	staged *stage
	closed bool
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

// SetupSide stations a relation where it lies: host i sets up sFrags[i], the
// piece S_i it holds.
func (c *Cluster) SetupSide(sFrags []*relation.Fragment) (*Side, error) {
	if len(sFrags) != c.cfg.Nodes {
		return nil, fmt.Errorf("cyclojoin: SetupSide with %d stationary slots for %d nodes", len(sFrags), c.cfg.Nodes)
	}
	side, _, err := c.setup(sFrags, nil, ByPosition)
	if err != nil {
		return nil, err
	}
	mPositionStations.Inc()
	return side, nil
}

// SetupSideByKey places s by key hash — host i gets exactly the keys
// relation.Owner gives it — and sets up each host's share. Equi-joins only:
// only equal keys share a host.
func (c *Cluster) SetupSideByKey(s *relation.Relation) (*Side, error) {
	if _, ok := c.cfg.Predicate.(join.Equi); !ok {
		return nil, fmt.Errorf("cyclojoin: key placement needs an equi-join, not %s: only equal keys share a host", c.cfg.Predicate)
	}
	placed, err := relation.PartitionByHash(s, c.cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("cyclojoin: place by key: %w", err)
	}
	side, _, err := c.setup(placed, nil, ByKey)
	if err != nil {
		return nil, err
	}
	mKeyStations.Inc()
	return side, nil
}

// SetupRotating reorganizes the rotating fragments on their home hosts:
// rFrags[i] are the fragments host i injects. Under ByKey every fragment is
// also ordered by owner — not an optimization, unlike the kernel's
// reorganization: a host joins only its owner's range of a fragment.
func (c *Cluster) SetupRotating(rFrags [][]*relation.Fragment, p Placement) (*Rotating, error) {
	if len(rFrags) != c.cfg.Nodes {
		return nil, fmt.Errorf("cyclojoin: SetupRotating with %d rotating slots for %d nodes", len(rFrags), c.cfg.Nodes)
	}
	_, rot, err := c.setup(nil, rFrags, p)
	return rot, err
}

// Station runs the setup phase for Rotate. sFrags[i] is the stationary piece
// S_i held by host i; rFrags[i] are the rotating fragments initially homed at
// host i. The data joins where it lies: every fragment probes every host.
func (c *Cluster) Station(sFrags []*relation.Fragment, rFrags [][]*relation.Fragment) error {
	if len(sFrags) != c.cfg.Nodes || len(rFrags) != c.cfg.Nodes {
		return fmt.Errorf("cyclojoin: Station with %d stationary and %d rotating slots for %d nodes",
			len(sFrags), len(rFrags), c.cfg.Nodes)
	}
	start := time.Now()
	side, rot, err := c.setup(sFrags, rFrags, ByPosition)
	if err != nil {
		return err
	}
	c.stage(rot, []*Side{side}, time.Since(start))
	mPositionStations.Inc()
	return nil
}

// setup is the setup phase proper, the one path behind every handle: host i
// sets up sFrags[i] unless sFrags is nil, then reorganizes rFrags[i] unless
// rFrags is nil. Hosts run their setup concurrently, as the cluster's
// machines would.
func (c *Cluster) setup(sFrags []*relation.Fragment, rFrags [][]*relation.Fragment, p Placement) (*Side, *Rotating, error) {
	c.mu.Lock()
	at := origin{cluster: c, replaced: c.replacements, placement: p}
	c.mu.Unlock()
	var side *Side
	if sFrags != nil {
		side = &Side{origin: at, hosts: make([]join.Stationary, c.cfg.Nodes)}
	}
	var rot *Rotating
	if rFrags != nil {
		rot = &Rotating{origin: at, fragments: rFrags, rotatingKeys: make([][]*relation.Fragment, c.cfg.Nodes)}
	}
	err := parallel(c.cfg.Nodes, func(i int) error {
		if side != nil {
			st, err := c.cfg.Algorithm.SetupStationary(sFrags[i].Rel, c.cfg.Predicate, c.joinOpts(i))
			if err != nil {
				return fmt.Errorf("cyclojoin: host %d: setup stationary: %w", i, err)
			}
			side.hosts[i] = st
		}
		if rot == nil {
			return nil
		}
		var err error
		rot.rotatingKeys[i], err = c.reorganize(i, rFrags[i], true, p)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return side, rot, nil
}

// reorganize is host i's setup of its rotating fragments frags, whole or
// their key columns alone: the kernel's order, unless the ablation skips it,
// then under ByKey the order by owner.
func (c *Cluster) reorganize(i int, frags []*relation.Fragment, keysOnly bool, p Placement) ([]*relation.Fragment, error) {
	opts := c.joinOpts(i)
	out := make([]*relation.Fragment, len(frags))
	for j, f := range frags {
		rel := f.Rel
		if keysOnly {
			rel = rel.KeysOnly()
		}
		if !c.cfg.SkipRotatingSetup {
			var err error
			if rel, err = c.cfg.Algorithm.SetupRotating(rel, c.cfg.Predicate, opts); err != nil {
				return nil, fmt.Errorf("cyclojoin: host %d: setup rotating fragment %d: %w", i, f.Index, err)
			}
		}
		if p == ByKey {
			// Stable, so the kernel's order survives inside each range. The
			// kernel's copy, if it made one, is spent once it is copied.
			byOwner := relation.OrderByOwner(rel, c.cfg.Nodes)
			if byOwner != rel {
				layout.ReleaseRotating(rel)
			}
			rel = byOwner
		}
		out[j] = &relation.Fragment{Rel: rel, Index: f.Index, Of: f.Of}
	}
	return out, nil
}

// tuples returns rot's fragments reorganized whole, reorganizing them on
// every host in parallel on the first call, and how long that took on the
// call that did it — zero on every other.
func (c *Cluster) tuples(rot *Rotating) (rotating [][]*relation.Fragment, took time.Duration, err error) {
	rot.ordering.Do(func() {
		start := time.Now()
		rotated := make([][]*relation.Fragment, c.cfg.Nodes)
		rot.orderErr = parallel(c.cfg.Nodes, func(i int) (err error) {
			rotated[i], err = c.reorganize(i, rot.fragments[i], false, rot.placement)
			return err
		})
		if rot.orderErr == nil {
			rot.rotating = rotated
		}
		rot.fragments = nil
		took = time.Since(start)
	})
	return rot.rotating, took, rot.orderErr
}

// parallel runs f(0) … f(n-1) concurrently and returns the error of the
// lowest i that failed.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stage makes rot and sides what Rotate revolves, releasing the handles they
// replace once no Rotate reads them.
func (c *Cluster) stage(rot *Rotating, sides []*Side, took time.Duration) {
	c.unstage(&stage{rot: rot, sides: sides, took: took})
}

// unstage makes next what Rotate revolves and retires what it replaces.
func (c *Cluster) unstage(next *stage) {
	c.mu.Lock()
	prev := c.staged
	c.staged = next
	due := prev.retire()
	c.mu.Unlock()
	if due {
		prev.release()
	}
}

// Result reports one revolution's outcome.
type Result struct {
	// SetupTime is the wall-clock duration of the most recent Station for
	// Rotate, and zero for Revolve, whose handles may serve many
	// revolutions; for either, plus the time the rotating handle took to
	// order its whole tuples if this revolution was the first to ship them.
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

// Rotate runs one full revolution of the stationed rotating fragments into
// Config.Collectors and returns the per-host results: Revolve over the
// handles the last Station set up. It may be called
// repeatedly; each call reuses the setup-phase investment.
func (c *Cluster) Rotate() (*Result, error) {
	c.mu.Lock()
	st := c.staged
	if st != nil {
		st.pins++
	}
	c.mu.Unlock()
	if st == nil {
		return nil, errors.New("cyclojoin: Rotate before Station")
	}
	res, err := c.revolve(st.rot, st.sides, c.cfg.Collectors, st.took)
	c.mu.Lock()
	due := st.unpin(err != nil)
	c.mu.Unlock()
	if due {
		st.release()
	}
	return res, err
}

// Revolve runs one full revolution of rot against sides, in chain order, and
// returns the per-host results; collect builds each host's collector, nil
// meaning one join.Counter per host. The hosts read the handles for this
// revolution only. Every handle must come from this cluster, share one
// placement and predate no ReplaceHost; by position a revolution reads one
// side.
//
// What rotates follows from the collectors: when every one is a
// join.MatchCounter — it needs the number of matches, not the tuples — the
// revolution ships the rotating fragments' key column alone; any other
// collector gets whole tuples. One Rotating serves both, so a count, a
// materialization and another count each ship what they read.
//
// With several sides (key placement) the collectors stand at the end of each
// host's probe chain: a fragment's matches with sides[0] probe sides[1] in
// small batches, and so on, and the collectors receive the matches with the
// last side, laid out as a left-deep sequence of join.Materializer steps
// would lay them out (rKey, and rPay ‖ key ‖ pay₀ ‖ key ‖ pay₁ … as rPay).
// When every collector counts, the chain hands on no matches at all: it
// multiplies each rotating tuple's per-side match counts (join.Stationary's
// CountEach) and probes a later side once per tuple still matching, not once
// per match. No intermediate result exists at any point, and since a key's
// matches live on one host only, a revolution probes |R| tuples against
// sides[0], not nodes·|R|.
func (c *Cluster) Revolve(rot *Rotating, sides []*Side, collect func(node int) join.Collector) (*Result, error) {
	return c.revolve(rot, sides, collect, 0)
}

// check refuses handles a revolution cannot read.
func (c *Cluster) check(rot *Rotating, sides []*Side) error {
	if rot == nil || len(sides) == 0 {
		return fmt.Errorf("cyclojoin: a revolution needs a rotating handle and a side, not %d sides", len(sides))
	}
	c.mu.Lock()
	replacements := c.replacements
	c.mu.Unlock()
	valid := func(at origin) error {
		switch {
		case at.cluster != c:
			return ErrForeignHandle
		case at.replaced != replacements:
			return ErrStaleHandle
		case at.placement != rot.placement:
			return ErrMixedPlacement
		}
		return nil
	}
	if err := valid(rot.origin); err != nil {
		return err
	}
	for _, s := range sides {
		if s == nil {
			return errors.New("cyclojoin: nil side")
		}
		if err := valid(s.origin); err != nil {
			return err
		}
	}
	if rot.placement == ByPosition && len(sides) > 1 {
		return fmt.Errorf("cyclojoin: %d sides placed by position: only sides placed by key chain", len(sides))
	}
	return nil
}

func (c *Cluster) revolve(rot *Rotating, sides []*Side, collect func(node int) join.Collector, setup time.Duration) (*Result, error) {
	if err := c.check(rot, sides); err != nil {
		return nil, err
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
	rotating := rot.rotatingKeys
	if countOnly {
		mKeyRevolutions.Inc()
	} else {
		var took time.Duration
		var err error
		if rotating, took, err = c.tuples(rot); err != nil {
			return nil, err
		}
		setup += took
		mTupleRevolutions.Inc()
	}
	k := len(sides)
	shares := make([]join.Stationary, len(c.hosts)*k) // one allocation for every host's shares
	for i, h := range c.hosts {
		own := shares[i*k : (i+1)*k : (i+1)*k]
		for j, s := range sides {
			own[j] = s.hosts[i]
		}
		// A count chain (two or more sides) or a lone side emits into the
		// collector itself.
		head, links := collectors[i], []*link(nil)
		if !countOnly {
			head, links = chain(own, collectors[i])
		}
		h.set(own, rot.placement == ByKey, head, links)
	}
	defer func() {
		for _, h := range c.hosts {
			h.set(nil, false, nil, nil)
		}
	}()
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
	if err := c.Station(sFrags, rFrags); err != nil {
		return nil, err
	}
	return c.Rotate()
}

// ReplaceHost swaps the host at position i for a fresh one (idle ring
// only). Stationed state dies with the host: every handle set up so far is
// stale, and Rotate needs a fresh Station.
func (c *Cluster) ReplaceHost(i int) error {
	if i < 0 || i >= c.cfg.Nodes {
		return fmt.Errorf("cyclojoin: replace host %d of %d", i, c.cfg.Nodes)
	}
	h := &hostState{node: i, nodes: c.cfg.Nodes}
	c.hosts[i] = h
	if err := c.ring.ReplaceNode(i, ring.ProcessorFunc(h.process)); err != nil {
		return fmt.Errorf("cyclojoin: replace host %d: %w", i, err)
	}
	c.mu.Lock()
	c.replacements++
	c.mu.Unlock()
	c.unstage(nil)
	return nil
}

// Close shuts the ring down and releases the handles the last Station set
// up.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.ring.Close()
	c.unstage(nil)
	return err
}
