package query

import (
	"fmt"
	"strings"

	"cyclojoin/internal/core"
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

	if len(filtered) > 1 {
		if err := e.explainJoins(&b, st, inputs, filtered); err != nil {
			return "", err
		}
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

// estimationRate trades estimation time for accuracy; ≈6 % of the key space
// is plenty for plan-level decisions.
const estimationRate = 16

// explainJoins prints the shape Execute will choose for the statement's
// joins, with the two row counts that decide it, and the cardinality
// estimate of every join. An input the engine holds stationed at its current
// version is marked "(stationed)": Execute will not station it again.
func (e *Engine) explainJoins(b *strings.Builder, st *Statement, inputs []bound, filtered []*relation.Relation) error {
	sh := chooseShape(e.nodes, filtered)
	placement := core.ByPosition
	if sh.byKey {
		placement = core.ByKey
	}
	stationed := make([]string, len(filtered))
	for i, in := range inputs {
		if e.holds(in.operand(st, filtered[i], placement, i == 0)) {
			stationed[i] = " (stationed)"
		}
	}
	ships := func(width int, last bool) (string, int) {
		// The last revolution of COUNT(*) collects into join.Counters, to
		// which the ring rotates the key column alone; every other collector
		// reads the rotating tuples, so they ship whole.
		if (last && st.CountOnly) || width == relation.KeyWidth {
			return "keys", relation.KeyWidth
		}
		return "tuples", width
	}

	curRows := float64(filtered[0].Len())
	cur := filtered[0]
	if sh.byKey {
		moves := 0 // what this statement places, not what chooseShape weighs
		for i, side := range filtered[1:] {
			if stationed[i+1] == "" {
				moves += side.Len()
			}
		}
		what, width := ships(cur.Schema().TupleWidth(), true)
		fmt.Fprintf(b, "cyclo-join: rotate %s (%d rows)%s against %s placed by key hash — 1 revolution, ships %s (%d B/tuple), saves %d probes, moves %d tuples\n",
			st.Tables[0], cur.Len(), stationed[0], strings.Join(st.Tables[1:], ", "), what, width, sh.saves, moves)
		for i, side := range filtered[1:] {
			curRows = planner.EstimateJoinSize(cur, side, estimationRate)
			fmt.Fprintf(b, "  probe %d: %s (%d rows)%s, est. output %.0f rows\n", i+1, st.Tables[i+1], side.Len(), stationed[i+1], curRows)
			cur = side // stands in for the chain's key distribution, as in the loop below
		}
		return nil
	}

	// curWidth is the rotating side's tuple width: a base table's columns
	// as bound, then the intermediate's — both sides' keys and payloads.
	curWidth := cur.Schema().TupleWidth()
	for step := 1; step < len(filtered); step++ {
		est := planner.EstimateJoinSize(cur, filtered[step], estimationRate)
		what, width := ships(curWidth, step == len(filtered)-1)
		plan, err := planner.Choose(costmodel.Default(), planner.Workload{
			RTuples:    int(curRows),
			STuples:    filtered[step].Len(),
			TupleBytes: width,
			Nodes:      e.nodes,
			Threads:    e.opts.Workers(),
		})
		if err != nil {
			return err
		}
		rotated := "" // the first step rotates a base table, later ones an intermediate
		if step == 1 {
			rotated = stationed[0]
		}
		fmt.Fprintf(b, "cyclo-join %d: rotate %.0f rows%s against %s (%d rows)%s, ships %s (%d B/tuple) — plan %s, est. output %.0f rows\n",
			step, curRows, rotated, st.Tables[step], filtered[step].Len(), stationed[step], what, width, plan, est)
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
	fmt.Fprintf(b, "placement: position (%d < %d)\n", sh.saves, sh.moves)
	return nil
}
