package query

import (
	"fmt"
	"strings"

	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/planner"
	"cyclojoin/internal/relation"
)

// Explain analyzes a query without executing it: it binds the statement,
// applies the WHERE filters to estimate the base cardinalities, sizes every
// join step with the correlated-sampling estimator, and costs each step
// with the cyclo-join planner. The result is the textual plan a database
// shell prints for EXPLAIN.
func (e *Engine) Explain(sql string) (string, error) {
	st, err := Parse(sql)
	if err != nil {
		return "", err
	}
	inputs, err := e.bind(st)
	if err != nil {
		return "", err
	}
	cal := costmodel.Default()

	var b strings.Builder
	fmt.Fprintf(&b, "ring: %d hosts, %d join threads\n", e.nodes, e.opts.Workers())

	filtered := make([]*relation.Relation, len(inputs))
	for i, in := range inputs {
		fs := filtersFor(st, st.Tables[i])
		filtered[i] = applyFilters(in.rel, fs)
		if len(fs) > 0 {
			fmt.Fprintf(&b, "scan %s: %d rows, filtered to %d\n", in.name, in.rel.Len(), filtered[i].Len())
		} else {
			fmt.Fprintf(&b, "scan %s: %d rows\n", in.name, filtered[i].Len())
		}
	}

	// estimationRate trades estimation time for accuracy; ≈6 % of the key
	// space is plenty for plan-level decisions.
	const estimationRate = 16
	curRows := float64(filtered[0].Len())
	cur := filtered[0]
	// curWidth is the rotating side's tuple width: a base table's columns
	// as bound, then the intermediate's — both sides' keys and payloads.
	curWidth := cur.Schema().TupleWidth()
	for step := 1; step < len(filtered); step++ {
		est := EstimateJoinSizeFloat(cur, filtered[step], estimationRate)
		// The final COUNT(*) step collects into join.Counters, to which the
		// ring rotates the key column alone; every other step's collector
		// reads the rotating tuples, so they ship whole.
		ships := curWidth
		if st.CountOnly && step == len(filtered)-1 {
			ships = relation.KeyWidth
		}
		plan, err := planner.Choose(cal, planner.Workload{
			RTuples:    int(curRows),
			STuples:    filtered[step].Len(),
			TupleBytes: ships,
			Nodes:      e.nodes,
			Threads:    e.opts.Workers(),
		})
		if err != nil {
			return "", err
		}
		what := "tuples"
		if ships == relation.KeyWidth {
			what = "keys"
		}
		fmt.Fprintf(&b, "cyclo-join %d: rotate %.0f rows against %s (%d rows), ships %s (%d B/tuple) — plan %s, est. output %.0f rows\n",
			step, curRows, st.Tables[step], filtered[step].Len(), what, ships, plan, est)
		curRows = est
		curWidth += filtered[step].Schema().TupleWidth()
		// EXPLAIN does not execute, so the true intermediate is not
		// available for the next step's estimate. Because every join in
		// the chain shares the key column, the just-joined stationary
		// side is a usable proxy for the intermediate's key distribution
		// (its keys survive into the output); the cardinality comes from
		// the estimate above.
		cur = filtered[step]
	}

	switch {
	case st.keyAggregate():
		fmt.Fprintf(&b, "aggregate: %s(%s.%s)\n", strings.ToUpper(string(st.Agg)), st.AggTable, st.AggCol)
	case st.CountOnly:
		fmt.Fprintf(&b, "aggregate: COUNT(*)\n")
	default:
		fmt.Fprintf(&b, "materialize result")
		if st.OrderByTable != "" {
			dir := "ASC"
			if st.OrderDesc {
				dir = "DESC"
			}
			fmt.Fprintf(&b, ", ORDER BY %s.%s %s", st.OrderByTable, st.OrderByCol, dir)
		}
		if st.Limit >= 0 {
			fmt.Fprintf(&b, ", LIMIT %d", st.Limit)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// EstimateJoinSizeFloat adapts the planner's estimator for EXPLAIN (kept
// here to avoid a query→planner→query cycle in the estimator tests).
func EstimateJoinSizeFloat(r, s *relation.Relation, rate int) float64 {
	return planner.EstimateJoinSize(r, s, rate)
}
