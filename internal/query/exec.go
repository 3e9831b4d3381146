package query

import (
	"fmt"
	"sync"

	"cyclojoin/internal/core"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/relation"
)

// Engine executes parsed queries on a cyclo-join ring.
type Engine struct {
	catalog *Catalog
	nodes   int
	opts    join.Options
}

// NewEngine builds an engine that runs every join on a ring of the given
// size.
func NewEngine(catalog *Catalog, nodes int, opts join.Options) (*Engine, error) {
	if catalog == nil {
		return nil, fmt.Errorf("query: nil catalog")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("query: %d nodes", nodes)
	}
	return &Engine{catalog: catalog, nodes: nodes, opts: opts}, nil
}

// Execute parses, validates and runs one query.
func (e *Engine) Execute(sql string) (*Result, error) {
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

	wantAgg := st.Agg == AggSum || st.Agg == AggMin || st.Agg == AggMax
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

	// Left-deep chain of cyclo-join runs (§IV-A's ternary-join
	// composition, generalized): the running intermediate rotates, the
	// next base table is stationed.
	cur := filtered[0]
	for step := 1; step < len(filtered); step++ {
		last := step == len(filtered)-1
		var agg *aggregator
		if last && wantAgg {
			agg = &aggregator{kind: st.Agg}
		}
		countOnly := last && st.CountOnly
		next, count, err := e.joinStep(cur, filtered[step], countOnly, agg, step)
		if err != nil {
			return nil, fmt.Errorf("query: join step %d (%s): %w", step, st.Tables[step], err)
		}
		if agg != nil {
			return &Result{Count: agg.rows(), AggValue: agg.value()}, nil
		}
		if countOnly {
			return &Result{Count: count}, nil
		}
		cur = next
	}
	cur, err = shapeOutput(cur, st)
	if err != nil {
		return nil, err
	}
	return &Result{Count: int64(cur.Len()), Rows: cur}, nil
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
	rel  *relation.Relation
	key  string
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
		inputs[i] = bound{name: name, rel: entry.rel, key: entry.key}
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
	if st.Agg == AggSum || st.Agg == AggMin || st.Agg == AggMax {
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

// joinStep runs one cyclo-join: `rotating` circulates against the
// stationed `stationary`. With countOnly it returns only the match count;
// with agg set, matches fold into the shared aggregator; otherwise the
// concatenated materialized result is returned.
func (e *Engine) joinStep(rotating, stationary *relation.Relation, countOnly bool, agg *aggregator, step int) (*relation.Relation, int64, error) {
	outName := fmt.Sprintf("join-%d", step)
	rWidth := rotating.Schema().PayloadWidth
	sWidth := stationary.Schema().PayloadWidth

	cfg := core.Config{
		Nodes:     e.nodes,
		Algorithm: hashjoin.Join{},
		Predicate: join.Equi{},
		Opts:      e.opts,
	}
	switch {
	case agg != nil:
		cfg.Collectors = func(node int) join.Collector { return agg }
	case !countOnly:
		cfg.Collectors = func(node int) join.Collector {
			return join.NewMaterializer(outName, rWidth, sWidth)
		}
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		_ = cluster.Close()
	}()

	sFrags, err := relation.Partition(stationary, e.nodes)
	if err != nil {
		return nil, 0, err
	}
	rParts, err := relation.Partition(rotating, e.nodes)
	if err != nil {
		return nil, 0, err
	}
	rFrags := make([][]*relation.Fragment, e.nodes)
	for i, f := range rParts {
		rFrags[i] = []*relation.Fragment{f}
	}
	res, err := cluster.Join(sFrags, rFrags)
	if err != nil {
		return nil, 0, err
	}
	if agg != nil {
		return nil, agg.rows(), nil
	}
	if countOnly {
		return nil, res.Matches(), nil
	}

	frags := make([]*relation.Fragment, len(res.Collectors))
	outSchema := relation.Schema{Name: outName, PayloadWidth: rWidth + relation.KeyWidth + sWidth}
	for i, c := range res.Collectors {
		m, ok := c.(*join.Materializer)
		if !ok {
			return nil, 0, fmt.Errorf("query: unexpected collector %T", c)
		}
		frags[i] = &relation.Fragment{Rel: m.Result(), Index: i, Of: len(res.Collectors)}
	}
	out, err := relation.Concat(outSchema, frags)
	if err != nil {
		return nil, 0, err
	}
	return out, int64(out.Len()), nil
}
