package query

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"cyclojoin/internal/core"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
)

// ErrClosed is returned by Execute on an engine that has been closed.
var ErrClosed = errors.New("query: engine closed")

// Builds against steps answers "is the ring warm?": a healthy engine builds
// once however many steps it runs; every further build is a ring lost to a
// failed step.
var (
	mRingBuilds = metrics.Default().Counter("query_ring_builds_total", "Data Roundabout rings built by SQL engines")
	mJoinSteps  = metrics.Default().Counter("query_join_steps_total", "cyclo-join steps run by SQL engines")
)

// Engine executes parsed queries on a cyclo-join ring. It is safe for
// concurrent use; join steps of concurrent queries take turns on the ring.
type Engine struct {
	catalog *Catalog
	nodes   int
	opts    join.Options

	// mu serializes join steps — a ring runs one revolution at a time —
	// and guards cluster.
	mu sync.Mutex
	// cluster is the engine's one ring: nil until the first join step, and
	// again after a step that failed, because a ring closes itself when a
	// revolution aborts.
	cluster *core.Cluster
	// closed is set under mu, so a step that holds mu and reads false may
	// build; Execute reads it without queueing behind a revolution.
	closed atomic.Bool
}

// NewEngine builds an engine that runs every join on one ring of the given
// size. The ring — its registered buffers (160 MB at 4 nodes) and its
// nodes' goroutines — is built by the first join step and kept for every
// later step and query until Close; single-table queries and Explain never
// build it. An engine dropped without Close pins its ring: the goroutines
// stay parked (no CPU) and the buffers, like whatever the last step
// stationed, are never collected.
func NewEngine(catalog *Catalog, nodes int, opts join.Options) (*Engine, error) {
	if catalog == nil {
		return nil, fmt.Errorf("query: nil catalog")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("query: %d nodes", nodes)
	}
	return &Engine{catalog: catalog, nodes: nodes, opts: opts}, nil
}

// Close releases the engine's ring, if one was built. It waits for a join
// step in progress; later Execute calls return ErrClosed. Close is
// idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Swap(true) {
		return nil
	}
	return e.dropCluster()
}

// dropCluster closes and forgets the ring; the next join step builds a
// fresh one. The caller holds e.mu.
func (e *Engine) dropCluster() error {
	if e.cluster == nil {
		return nil
	}
	err := e.cluster.Close()
	e.cluster = nil
	return err
}

// Execute parses, validates and runs one query.
func (e *Engine) Execute(sql string) (*Result, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	inputs, err := e.bind(st)
	if err != nil {
		return nil, err
	}

	// Filters push down to the base tables before any join runs.
	filtered := make([]*relation.Relation, len(inputs))
	for i, in := range inputs {
		filtered[i] = applyFilters(in.rel, filtersFor(st, st.Tables[i]))
	}

	wantAgg := st.keyAggregate()
	if (st.OrderByTable != "" || st.Limit >= 0) && (wantAgg || st.CountOnly) {
		return nil, fmt.Errorf("query: ORDER BY / LIMIT apply to SELECT *, not aggregates")
	}

	if len(filtered) == 1 {
		out := filtered[0]
		res := &Result{Count: int64(out.Len())}
		switch {
		case wantAgg:
			res.AggValue = aggregateKeys(out, st.Agg)
		case !st.CountOnly:
			rows, err := shapeOutput(out, st)
			if err != nil {
				return nil, err
			}
			res.Rows, res.Count = rows, int64(rows.Len())
		}
		return res, nil
	}

	rotating, err := distribute(filtered[0], e.nodes)
	if err != nil {
		return nil, err
	}
	sides := filtered[1:]
	lastSide := sides[len(sides)-1]
	lastWidth := lastSide.Schema().PayloadWidth
	if chooseShape(e.nodes, filtered).byKey {
		// One revolution: every stationary table is placed by key hash, so
		// each host joins a fragment flowing by against its share of all of
		// them, one after the other, and no intermediate exists.
		last := newSink(st, chainedWidth(rotating[0], sides[:len(sides)-1]), lastWidth)
		res, err := e.onRing(rotating, last.collect, func(c *core.Cluster, rFrags [][]*relation.Fragment) error {
			return c.StationByKey(sides, rFrags)
		})
		if err != nil {
			return nil, fmt.Errorf("query: join %s: %w", strings.Join(st.Tables, ", "), err)
		}
		return last.result(res, st)
	}

	// Left-deep chain of cyclo-join runs (§IV-A's ternary-join
	// composition, generalized): the running intermediate rotates, the
	// next base table is stationed where it lies. The intermediate is the
	// paper's distributed table: what a host's join entity produced in one
	// step is what that host injects in the next.
	byPosition := func(stationary *relation.Relation) func(*core.Cluster, [][]*relation.Fragment) error {
		return func(c *core.Cluster, rFrags [][]*relation.Fragment) error {
			sFrags, err := relation.Partition(stationary, e.nodes)
			if err != nil {
				return err
			}
			return c.Station(sFrags, rFrags)
		}
	}
	for i, stationary := range sides[:len(sides)-1] {
		name := fmt.Sprintf("join-%d", i+1)
		rWidth, sWidth := rotating[0].Schema().PayloadWidth, stationary.Schema().PayloadWidth
		res, err := e.onRing(rotating, func(int) join.Collector { return join.NewMaterializer(name, rWidth, sWidth) }, byPosition(stationary))
		if err != nil {
			return nil, fmt.Errorf("query: join step %d (%s): %w", i+1, st.Tables[i+1], err)
		}
		if rotating, err = materialized(res); err != nil {
			return nil, err
		}
	}
	last := newSink(st, rotating[0].Schema().PayloadWidth, lastWidth)
	res, err := e.onRing(rotating, last.collect, byPosition(lastSide))
	if err != nil {
		return nil, fmt.Errorf("query: join step %d (%s): %w", len(sides), st.Tables[len(sides)], err)
	}
	return last.result(res, st)
}

// shape is how a multi-table statement runs: as one revolution against
// stationary tables placed by key hash, or as a left-deep sequence of
// revolutions against tables stationed where they lie.
type shape struct {
	byKey bool
	// saves is the probes key placement spares: placed by position, every
	// rotating tuple probes every host; placed by key, only its owner.
	saves int
	// moves is the tuples key placement copies to their owner: every
	// stationary table, once.
	moves int
}

// chooseShape decides from the exact row counts after filters: key placement
// pays when the probes it saves outnumber the tuples it moves. A small table
// rotating against a large one — the paper's "rotate the smaller input" —
// stays position-placed, where the large table is built where it lies.
func chooseShape(nodes int, filtered []*relation.Relation) shape {
	sh := shape{saves: (nodes - 1) * filtered[0].Len()}
	for _, side := range filtered[1:] {
		sh.moves += side.Len()
	}
	sh.byKey = sh.saves >= sh.moves
	return sh
}

// chainedWidth is the payload width of rotating ⋈ sides[0] ⋈ sides[1] … in
// the join.Materializer layout: each join appends the stationary tuple, key
// and payload, to the rotating payload.
func chainedWidth(rotating *relation.Relation, sides []*relation.Relation) int {
	w := rotating.Schema().PayloadWidth
	for _, side := range sides {
		w += side.Schema().TupleWidth()
	}
	return w
}

// sink is where a revolution's matches go: collect builds each host's
// collector (nil: one join.Counter per host).
type sink struct {
	collect func(node int) join.Collector
	agg     *aggregator
}

// newSink returns the sink of a statement's last join, of rotating tuples
// with rWidth payload bytes against stationary ones with sWidth: counters for
// COUNT(*), the aggregator for SUM/MIN/MAX, a join.Materializer per host for
// SELECT *.
func newSink(st *Statement, rWidth, sWidth int) *sink {
	switch {
	case st.CountOnly:
		return &sink{}
	case st.keyAggregate():
		agg := &aggregator{kind: st.Agg}
		return &sink{agg: agg, collect: func(int) join.Collector { return agg }}
	default:
		return &sink{collect: func(int) join.Collector { return join.NewMaterializer("join", rWidth, sWidth) }}
	}
}

// result turns the last revolution into the statement's answer.
func (to *sink) result(res *core.Result, st *Statement) (*Result, error) {
	switch {
	case to.agg != nil:
		return &Result{Count: to.agg.rows(), AggValue: to.agg.value()}, nil
	case to.collect == nil:
		return &Result{Count: res.Matches()}, nil
	}
	rows, err := materialized(res)
	if err != nil {
		return nil, err
	}
	out, err := rows.concat()
	if err != nil {
		return nil, err
	}
	if out, err = shapeOutput(out, st); err != nil {
		return nil, err
	}
	return &Result{Count: int64(out.Len()), Rows: out}, nil
}

// materialized is the distributed table a revolution into join.Materializers
// produced: host i's part is what host i's join entity emitted.
func materialized(res *core.Result) (distributed, error) {
	d := make(distributed, len(res.Collectors))
	for i, c := range res.Collectors {
		m, ok := c.(*join.Materializer)
		if !ok {
			return nil, fmt.Errorf("query: unexpected collector %T", c)
		}
		d[i] = m.Result()
	}
	return d, nil
}

// shapeOutput applies ORDER BY and LIMIT to a materialized result.
func shapeOutput(out *relation.Relation, st *Statement) (*relation.Relation, error) {
	if st.OrderByTable != "" {
		var err error
		if out, err = sortmerge.SortedCopy(out); err != nil {
			return nil, fmt.Errorf("query: ORDER BY: %w", err)
		}
		if st.OrderDesc {
			out = reverseRelation(out)
		}
	}
	if st.Limit >= 0 && st.Limit < out.Len() {
		view, err := out.Slice(0, st.Limit)
		if err != nil {
			// Bounds checked above; unreachable.
			panic(err)
		}
		out = view
	}
	return out, nil
}

// reverseRelation returns a copy with tuples in reverse order.
func reverseRelation(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema(), r.Len())
	for i := r.Len() - 1; i >= 0; i-- {
		if err := out.AppendFrom(r, i); err != nil {
			// Same schema; unreachable.
			panic(err)
		}
	}
	return out
}

// aggregator folds matched output keys under SUM/MIN/MAX. It is shared by
// every host's join entity, so it must be safe for concurrent use.
type aggregator struct {
	mu   sync.Mutex
	kind AggKind
	n    int64
	sum  uint64
	min  uint64
	max  uint64
	seen bool
}

var _ join.Collector = (*aggregator)(nil)

// Emit implements join.Collector.
func (a *aggregator) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	a.sum += rKey
	if !a.seen || rKey < a.min {
		a.min = rKey
	}
	if !a.seen || rKey > a.max {
		a.max = rKey
	}
	a.seen = true
}

func (a *aggregator) rows() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// value returns the aggregate, or nil when no rows matched (SQL's NULL).
func (a *aggregator) value() *uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.seen {
		return nil
	}
	var v uint64
	switch a.kind {
	case AggSum:
		v = a.sum
	case AggMin:
		v = a.min
	case AggMax:
		v = a.max
	}
	return &v
}

// aggregateKeys folds a base relation's keys without a join.
func aggregateKeys(rel *relation.Relation, kind AggKind) *uint64 {
	if rel.Len() == 0 {
		return nil
	}
	v := rel.Key(0)
	for i := 1; i < rel.Len(); i++ {
		k := rel.Key(i)
		switch kind {
		case AggSum:
			v += k
		case AggMin:
			if k < v {
				v = k
			}
		case AggMax:
			if k > v {
				v = k
			}
		}
	}
	return &v
}

// bound is one FROM-clause table resolved against the catalog.
type bound struct {
	name string
	// rel holds the columns the statement reads. SQL names key columns only
	// (payloads are opaque to it), so anything but SELECT * binds the key
	// column alone; its filters, Station, the ring and the intermediates
	// then handle 8 bytes per tuple and source table, whatever the widths.
	rel *relation.Relation
	key string
}

// bind resolves and semantically validates the statement.
func (e *Engine) bind(st *Statement) ([]bound, error) {
	seen := map[string]bool{}
	inputs := make([]bound, len(st.Tables))
	for i, name := range st.Tables {
		if seen[name] {
			return nil, fmt.Errorf("query: table %q appears twice (self-joins need aliases, which are not supported)", name)
		}
		seen[name] = true
		entry, err := e.catalog.lookup(name)
		if err != nil {
			return nil, err
		}
		rel := entry.rel
		if st.keysOnly() {
			rel = rel.KeysOnly()
		}
		inputs[i] = bound{name: name, rel: rel, key: entry.key}
	}

	keyOf := map[string]string{}
	for _, b := range inputs {
		keyOf[b.name] = b.key
	}
	checkCol := func(table, col string) error {
		key, ok := keyOf[table]
		if !ok {
			return fmt.Errorf("query: table %q not in FROM clause", table)
		}
		if col != key {
			return fmt.Errorf("query: column %s.%s is not the table's join key (%s.%s)", table, col, table, key)
		}
		return nil
	}

	for i, jc := range st.Joins {
		newcomer := st.Tables[i+1]
		if jc.LeftTable != newcomer && jc.RightTable != newcomer {
			return nil, fmt.Errorf("query: JOIN %s ON condition does not reference %s", newcomer, newcomer)
		}
		other := jc.LeftTable
		if other == newcomer {
			other = jc.RightTable
		}
		if pos := indexOf(st.Tables, other); pos < 0 || pos > i {
			return nil, fmt.Errorf("query: JOIN %s ON references %s, which is not joined yet", newcomer, other)
		}
		if err := checkCol(jc.LeftTable, jc.LeftCol); err != nil {
			return nil, err
		}
		if err := checkCol(jc.RightTable, jc.RightCol); err != nil {
			return nil, err
		}
	}
	for _, f := range st.Filters {
		if err := checkCol(f.Table, f.Col); err != nil {
			return nil, err
		}
	}
	if st.keyAggregate() {
		if err := checkCol(st.AggTable, st.AggCol); err != nil {
			return nil, err
		}
	}
	if st.OrderByTable != "" {
		if err := checkCol(st.OrderByTable, st.OrderByCol); err != nil {
			return nil, err
		}
	}
	return inputs, nil
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

func filtersFor(st *Statement, table string) []Filter {
	var out []Filter
	for _, f := range st.Filters {
		if f.Table == table {
			out = append(out, f)
		}
	}
	return out
}

// applyFilters scans rel and keeps the tuples passing every filter.
func applyFilters(rel *relation.Relation, filters []Filter) *relation.Relation {
	if len(filters) == 0 {
		return rel
	}
	out := relation.New(rel.Schema(), rel.Len()/2)
	for i := 0; i < rel.Len(); i++ {
		keep := true
		for _, f := range filters {
			if !f.Matches(rel.Key(i)) {
				keep = false
				break
			}
		}
		if keep {
			if err := out.AppendFrom(rel, i); err != nil {
				// Same schema by construction; unreachable.
				panic(err)
			}
		}
	}
	return out
}

// distributed is a table spread over the ring: element i is the part held by
// host i. All parts share one schema.
type distributed []*relation.Relation

// distribute spreads a base table evenly over the hosts, in input order.
func distribute(rel *relation.Relation, nodes int) (distributed, error) {
	frags, err := relation.Partition(rel, nodes)
	if err != nil {
		return nil, err
	}
	d := make(distributed, nodes)
	for i, f := range frags {
		d[i] = f.Rel
	}
	return d, nil
}

// fragments cuts every host's part into the rotating fragments that host
// injects: as few as keep each encoded frame within a ring buffer, so one
// per host whenever the part fits, more when a large table or a fat
// intermediate does not.
func (d distributed) fragments() ([][]*relation.Fragment, error) {
	perHost := make([][]*relation.Fragment, len(d))
	total := 0
	for i, part := range d {
		frags, err := relation.PartitionByBytes(part, ring.DefaultBufferBytes)
		if err != nil {
			return nil, err
		}
		perHost[i] = frags
		total += len(frags)
	}
	// Number the fragments across the hosts: the ring, its traces and its
	// error messages identify a fragment by Index.
	index := 0
	for _, frags := range perHost {
		for _, f := range frags {
			f.Index, f.Of = index, total
			index++
		}
	}
	return perHost, nil
}

// concat gathers the distributed table into one relation, in host order.
func (d distributed) concat() (*relation.Relation, error) {
	frags := make([]*relation.Fragment, len(d))
	for i, part := range d {
		frags[i] = &relation.Fragment{Rel: part, Index: i, Of: len(d)}
	}
	return relation.Concat(d[0].Schema(), frags)
}

// onRing runs one cyclo-join on the engine's ring: station — Station or
// StationByKey, with rotating cut into ring-sized fragments — then one
// revolution into collect's collectors (nil: a join.Counter per host). The
// first call builds the ring. A call that fails drops it — ring.Run closes a
// ring whose revolution aborted — so the failure ends with the query that
// caused it and the next call starts on a fresh ring.
func (e *Engine) onRing(rotating distributed, collect func(node int) join.Collector,
	station func(c *core.Cluster, rFrags [][]*relation.Fragment) error) (*core.Result, error) {
	rFrags, err := rotating.fragments()
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.cluster == nil {
		e.cluster, err = core.NewCluster(core.Config{
			Nodes:     e.nodes,
			Algorithm: hashjoin.Join{},
			Predicate: join.Equi{},
			Opts:      e.opts,
		})
		if err != nil {
			return nil, err
		}
		mRingBuilds.Inc()
	}
	mJoinSteps.Inc()
	var res *core.Result
	if err = station(e.cluster, rFrags); err == nil {
		res, err = e.cluster.RotateInto(collect)
	}
	if err != nil {
		_ = e.dropCluster() // the step's error is the one to report
		return nil, err
	}
	return res, nil
}
