package query

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cyclojoin/internal/core"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
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

// Reused against stationed answers "are the tables staying on the ring?":
// one count per stationary side and rotating table a join step reads.
var (
	mReused    = metrics.Default().Counter("query_stationed_total", "tables SQL join steps read, by whether the engine's store held them stationed", "outcome", "reused")
	mStationed = metrics.Default().Counter("query_stationed_total", "tables SQL join steps read, by whether the engine's store held them stationed", "outcome", "stationed")
)

// Engine executes parsed queries on a cyclo-join ring. It is safe for
// concurrent use; join steps of concurrent queries take turns on the ring.
type Engine struct {
	catalog *Catalog
	nodes   int
	opts    join.Options

	// mu serializes join steps — a ring runs one revolution at a time —
	// and guards cluster and stationed.
	mu sync.Mutex
	// cluster is the engine's one ring: nil until the first join step, and
	// again after a step that failed, because a ring closes itself when a
	// revolution aborts.
	cluster *core.Cluster
	// stationed is the store: the stationed form of every base table a
	// join step read whole, filed by how the step read it and tagged with
	// the table's catalog version. It lives and dies with cluster.
	stationed map[slot]entry
	// closed is set under mu, so a step that holds mu and reads false may
	// build; Execute reads it without queueing behind a revolution.
	closed atomic.Bool
}

// NewEngine builds an engine that runs every join on one ring of the given
// size. The ring — its registered buffers (160 MB at 4 nodes) and its
// nodes' goroutines — is built by the first join step and kept for every
// later step and query until Close; single-table queries and Explain never
// build it.
//
// The tables stay on the ring: a join step stations a base table it reads
// whole (hash-placed or where it lies, rotating or stationary, all columns
// or the key alone) once per catalog version, and every later step that
// reads it the same way reuses that stationed state. Registering the table
// again makes the next such step station it again; a filtered table and an
// intermediate result are stationed for their step only. The store holds at
// most one entry per table and way of reading it, and is emptied with the
// ring, by a failed step or Close. An engine dropped without Close pins its
// ring and its store: the goroutines stay parked (no CPU) and the memory is
// never collected.
func NewEngine(catalog *Catalog, nodes int, opts join.Options) (*Engine, error) {
	if catalog == nil {
		return nil, fmt.Errorf("query: nil catalog")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("query: %d nodes", nodes)
	}
	return &Engine{catalog: catalog, nodes: nodes, opts: opts}, nil
}

// Close releases the engine's ring and what it stationed, if a ring was
// built. It waits for a join step in progress; later Execute calls return
// ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Swap(true) {
		return nil
	}
	return e.dropCluster()
}

// dropCluster closes and forgets the ring and the store; the next join step
// builds a fresh ring. The caller holds e.mu.
func (e *Engine) dropCluster() error {
	e.stationed = nil
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

	// table is the i-th FROM table as a revolution placed p reads it.
	table := func(i int, p core.Placement, rotating bool) operand {
		return inputs[i].operand(st, filtered[i], p, rotating)
	}
	n := len(filtered) - 1 // the last table's index
	lastWidth := filtered[n].Schema().PayloadWidth
	if chooseShape(e.nodes, filtered).byKey {
		// One revolution: every stationary table is placed by key hash, so
		// each host joins a fragment flowing by against its share of all of
		// them, one after the other, and no intermediate exists.
		sides := make([]operand, n)
		for i := range sides {
			sides[i] = table(i+1, core.ByKey, false)
		}
		last := newSink(st, chainedWidth(filtered[0], filtered[1:n]), lastWidth)
		res, err := e.onRing(core.ByKey, table(0, core.ByKey, true), sides, last.collect)
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
	rotating := table(0, core.ByPosition, true)
	width := filtered[0].Schema().PayloadWidth
	for i := 1; i < n; i++ {
		name, rWidth, sWidth := fmt.Sprintf("join-%d", i), width, filtered[i].Schema().PayloadWidth
		res, err := e.onRing(core.ByPosition, rotating, []operand{table(i, core.ByPosition, false)},
			func(int) join.Collector { return join.NewMaterializer(name, rWidth, sWidth) })
		if err != nil {
			return nil, fmt.Errorf("query: join step %d (%s): %w", i, st.Tables[i], err)
		}
		parts, err := materialized(res)
		if err != nil {
			return nil, err
		}
		rotating = operand{parts: parts}
		width += filtered[i].Schema().TupleWidth()
	}
	last := newSink(st, width, lastWidth)
	res, err := e.onRing(core.ByPosition, rotating, []operand{table(n, core.ByPosition, false)}, last.collect)
	if err != nil {
		return nil, fmt.Errorf("query: join step %d (%s): %w", n, st.Tables[n], err)
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
		if out, err = orderByKey(out, st.OrderDesc); err != nil {
			return nil, fmt.Errorf("query: ORDER BY: %w", err)
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

// orderByKey returns a copy of r stably sorted by key — tuples with one key
// keep their order — or, for desc, that order reversed.
func orderByKey(r *relation.Relation, desc bool) (*relation.Relation, error) {
	if uint64(r.Len()) > math.MaxUint32 {
		return nil, fmt.Errorf("cannot sort %d rows: row numbers are 32 bits wide", r.Len())
	}
	keys, payW := r.Keys(), r.Schema().PayloadWidth
	rows := make([]uint32, len(keys))
	for i := range rows {
		rows[i] = uint32(i)
	}
	slices.SortStableFunc(rows, func(a, b uint32) int { return cmp.Compare(keys[a], keys[b]) })
	if desc {
		slices.Reverse(rows)
	}
	sorted := make([]uint64, len(rows))
	for i, row := range rows {
		sorted[i] = keys[row]
	}
	pay := make([]byte, len(rows)*payW)
	join.GatherPayload(pay, r.PayloadColumn(), rows, payW)
	return relation.Wrap(r.Schema(), sorted, pay)
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

var _ join.BlockCollector = (*aggregator)(nil)

// Emit implements join.Collector.
func (a *aggregator) Emit(rKey, sKey uint64, rPay, sPay []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.add(rKey)
}

// EmitBlock implements join.BlockCollector.
//
//cyclolint:hotpath
func (a *aggregator) EmitBlock(b join.Block) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range b.Pairs {
		a.add(b.R.Keys[m[0]])
	}
}

// add folds one matched output key. The caller holds a.mu.
func (a *aggregator) add(rKey uint64) {
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
	// column alone; its filters, setup, the ring and the intermediates
	// then handle 8 bytes per tuple and source table, whatever the widths.
	rel     *relation.Relation
	key     string
	version uint64 // of the catalog entry rel came from
}

// operand is this table, rel after the statement's filters, as one
// revolution placed p reads it, rotating or stationary.
func (in bound) operand(st *Statement, rel *relation.Relation, p core.Placement, rotating bool) operand {
	return operand{
		rel:     rel,
		version: in.version,
		slot:    slot{table: in.name, keysOnly: st.keysOnly(), placement: p, rotating: rotating},
		stored:  len(filtersFor(st, in.name)) == 0,
	}
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
		inputs[i] = bound{name: name, rel: rel, key: entry.key, version: entry.version}
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

// slot is how a join step reads a base table, and so which stationed form
// of it the step needs: its columns (all, or the key alone), its placement,
// and whether it rotates or stays.
type slot struct {
	table     string
	keysOnly  bool
	placement core.Placement
	rotating  bool
}

// entry is one table in the store: its stationed form — a *core.Side or a
// *core.Rotating — set up from the table's registration `version`.
type entry struct {
	version uint64
	handle  any
}

// operand is one input of a revolution: a base table (rel), or the
// distributed intermediate of the step before (parts), which rotates where
// it lies. A stored operand is a base table read whole; the store files its
// stationed form under slot. Any other is stationed for its revolution only.
type operand struct {
	rel     *relation.Relation
	parts   distributed
	slot    slot
	version uint64
	stored  bool
}

// onRing runs one cyclo-join on the engine's ring: the rotating operand
// against the stationary ones, in chain order, all placed p, in one
// revolution into collect's collectors (nil: a join.Counter per host). The
// first call builds the ring. A call that fails drops it, and the store with
// it — ring.Run closes a ring whose revolution aborted — so the failure ends
// with the query that caused it and the next call starts on a fresh ring.
func (e *Engine) onRing(p core.Placement, rotating operand, sides []operand, collect func(node int) join.Collector) (*core.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.cluster == nil {
		var err error
		e.cluster, err = core.NewCluster(core.Config{
			Nodes:     e.nodes,
			Algorithm: hashjoin.Join{},
			Predicate: join.Equi{},
			Opts:      e.opts,
		})
		if err != nil {
			return nil, err
		}
		e.stationed = make(map[slot]entry)
		mRingBuilds.Inc()
	}
	mJoinSteps.Inc()
	rot, set, err := e.station(p, rotating, sides)
	var res *core.Result
	if err == nil {
		res, err = e.cluster.Revolve(rot, set, collect)
	}
	if err != nil {
		_ = e.dropCluster() // the step's error is the one to report
		return nil, err
	}
	return res, nil
}

// station returns the stationed form of every operand: the store's where it
// holds the operand at its version, set up now — concurrently — where it
// does not. A stored operand set up now is filed. The caller holds e.mu.
func (e *Engine) station(p core.Placement, rotating operand, sides []operand) (*core.Rotating, []*core.Side, error) {
	ops := append([]operand{rotating}, sides...)
	handles := make([]any, len(ops))
	var fresh []int
	for i, op := range ops {
		if h, ok := e.lookup(op); ok {
			handles[i] = h
			mReused.Inc()
		} else {
			fresh = append(fresh, i)
		}
	}
	c, errs := e.cluster, make([]error, len(fresh))
	var wg sync.WaitGroup
	for k, i := range fresh {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			handles[i], errs[k] = e.setup(c, p, ops[i], i == 0)
		}(k, i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	for _, i := range fresh {
		mStationed.Inc()
		if ops[i].stored {
			e.file(ops[i], handles[i])
		}
	}
	set := make([]*core.Side, len(sides))
	for j, h := range handles[1:] {
		set[j] = h.(*core.Side)
	}
	return handles[0].(*core.Rotating), set, nil
}

// setup stations op on c, placed p: as the rotating fragments, or as a side
// placed by key hash or where it lies.
func (e *Engine) setup(c *core.Cluster, p core.Placement, op operand, rotating bool) (any, error) {
	switch {
	case rotating:
		parts := op.parts
		if parts == nil {
			var err error
			if parts, err = distribute(op.rel, e.nodes); err != nil {
				return nil, err
			}
		}
		rFrags, err := parts.fragments()
		if err != nil {
			return nil, err
		}
		return c.SetupRotating(rFrags, p)
	case p == core.ByKey:
		return c.SetupSideByKey(op.rel)
	default:
		sFrags, err := relation.Partition(op.rel, e.nodes)
		if err != nil {
			return nil, err
		}
		return c.SetupSide(sFrags)
	}
}

// lookup returns the store's stationed form of op, if it holds op at its
// version. The caller holds e.mu.
func (e *Engine) lookup(op operand) (any, bool) {
	if !op.stored {
		return nil, false
	}
	ent, ok := e.stationed[op.slot]
	if !ok || ent.version != op.version {
		return nil, false
	}
	return ent.handle, true
}

// file stores op's freshly stationed form. A table's entries all come from
// one registration: filing a newer version drops the older ones, and a step
// that read a table since registered again files nothing. The caller holds
// e.mu.
func (e *Engine) file(op operand, handle any) {
	for s, ent := range e.stationed {
		switch {
		case s.table != op.slot.table:
		case ent.version > op.version:
			return
		case ent.version < op.version:
			delete(e.stationed, s)
		}
	}
	e.stationed[op.slot] = entry{version: op.version, handle: handle}
}

// holds reports whether the store holds op at its version: what Explain
// marks as stationed.
func (e *Engine) holds(op operand) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.lookup(op)
	return ok
}
