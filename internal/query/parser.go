package query

import "fmt"

// AggKind names an aggregate function.
type AggKind string

// Supported aggregates over the join-key column.
const (
	AggNone  AggKind = ""
	AggCount AggKind = "count"
	AggSum   AggKind = "sum"
	AggMin   AggKind = "min"
	AggMax   AggKind = "max"
)

// Statement is the parsed form of a query.
type Statement struct {
	// CountOnly distinguishes SELECT COUNT(*) from SELECT *.
	CountOnly bool
	// Agg is the aggregate selected, if any (COUNT sets both CountOnly
	// and Agg for backward compatibility).
	Agg AggKind
	// AggTable/AggCol name the aggregated column for SUM/MIN/MAX.
	AggTable, AggCol string
	// Tables lists the FROM/JOIN tables in syntactic order.
	Tables []string
	// Joins holds one condition per JOIN clause; Joins[i] connects
	// Tables[i+1] to one of Tables[0..i].
	Joins []JoinCond
	// Filters holds the WHERE conjuncts.
	Filters []Filter
	// OrderBy names the ORDER BY column's table ("" = no ordering).
	OrderByTable, OrderByCol string
	// OrderDesc selects descending order.
	OrderDesc bool
	// Limit caps the result rows; negative means no limit.
	Limit int
}

// keyAggregate reports whether the statement selects SUM, MIN or MAX of a
// key column.
func (st *Statement) keyAggregate() bool {
	return st.Agg == AggSum || st.Agg == AggMin || st.Agg == AggMax
}

// keysOnly reports whether the answer depends on the tables' key columns
// alone: COUNT(*) and the key aggregates do, SELECT * returns payloads too.
func (st *Statement) keysOnly() bool { return st.CountOnly || st.keyAggregate() }

// JoinCond is one ON table.col = table.col condition.
type JoinCond struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// FilterOp is a comparison operator in a WHERE conjunct.
type FilterOp string

// Filter operators.
const (
	OpEq      FilterOp = "="
	OpLt      FilterOp = "<"
	OpLe      FilterOp = "<="
	OpGt      FilterOp = ">"
	OpGe      FilterOp = ">="
	OpBetween FilterOp = "between"
)

// Filter is one WHERE conjunct on a table's key column.
type Filter struct {
	Table, Col string
	Op         FilterOp
	// Value is the comparison operand (BETWEEN's lower bound).
	Value uint64
	// Hi is BETWEEN's upper bound.
	Hi uint64
}

// Matches evaluates the filter against a key.
func (f Filter) Matches(key uint64) bool {
	switch f.Op {
	case OpEq:
		return key == f.Value
	case OpLt:
		return key < f.Value
	case OpLe:
		return key <= f.Value
	case OpGt:
		return key > f.Value
	case OpGe:
		return key >= f.Value
	case OpBetween:
		return key >= f.Value && key <= f.Hi
	default:
		return false
	}
}

// Parse turns SQL text into a Statement. Semantic checks against a catalog
// happen in Plan/Execute, not here.
func Parse(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: parse error at position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// keyword consumes an identifier with the given lowercase text.
func (p *parser) keyword(kw string) error {
	t := p.peek()
	if t.kind != tokIdent || t.text != kw {
		return p.errf("expected %s, found %s", kw, t)
	}
	p.next()
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) symbol(s string) error {
	t := p.peek()
	if t.kind != tokSymbol || t.text != s {
		return p.errf("expected %q, found %s", s, t)
	}
	p.next()
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	switch t.text {
	case "select", "from", "join", "on", "where", "and", "count", "between",
		"sum", "min", "max", "order", "by", "limit", "asc", "desc":
		return "", p.errf("reserved word %s used as identifier", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) number() (uint64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected number, found %s", t)
	}
	p.next()
	return t.num, nil
}

// column parses table.col.
func (p *parser) column() (table, col string, err error) {
	table, err = p.ident()
	if err != nil {
		return "", "", err
	}
	if err := p.symbol("."); err != nil {
		return "", "", err
	}
	col, err = p.ident()
	if err != nil {
		return "", "", err
	}
	return table, col, nil
}

func (p *parser) statement() (*Statement, error) {
	if err := p.keyword("select"); err != nil {
		return nil, err
	}
	st := &Statement{}
	switch {
	case p.isKeyword("count"):
		p.next()
		if err := p.symbol("("); err != nil {
			return nil, err
		}
		if err := p.symbol("*"); err != nil {
			return nil, err
		}
		if err := p.symbol(")"); err != nil {
			return nil, err
		}
		st.CountOnly = true
		st.Agg = AggCount
	case p.isKeyword("sum") || p.isKeyword("min") || p.isKeyword("max"):
		st.Agg = AggKind(p.peek().text)
		p.next()
		if err := p.symbol("("); err != nil {
			return nil, err
		}
		tbl, col, err := p.column()
		if err != nil {
			return nil, err
		}
		if err := p.symbol(")"); err != nil {
			return nil, err
		}
		st.AggTable, st.AggCol = tbl, col
	case p.peek().kind == tokSymbol && p.peek().text == "*":
		p.next()
	default:
		return nil, p.errf("expected COUNT(*), SUM/MIN/MAX(column) or *, found %s", p.peek())
	}

	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Tables = append(st.Tables, first)

	for p.isKeyword("join") {
		p.next()
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Tables = append(st.Tables, tbl)
		if err := p.keyword("on"); err != nil {
			return nil, err
		}
		lt, lc, err := p.column()
		if err != nil {
			return nil, err
		}
		if err := p.symbol("="); err != nil {
			return nil, err
		}
		rt, rc, err := p.column()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinCond{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc})
	}

	if p.isKeyword("where") {
		p.next()
		for {
			f, err := p.filter()
			if err != nil {
				return nil, err
			}
			st.Filters = append(st.Filters, f)
			if !p.isKeyword("and") {
				break
			}
			p.next()
		}
	}

	st.Limit = -1
	if p.isKeyword("order") {
		p.next()
		if err := p.keyword("by"); err != nil {
			return nil, err
		}
		tbl, col, err := p.column()
		if err != nil {
			return nil, err
		}
		st.OrderByTable, st.OrderByCol = tbl, col
		switch {
		case p.isKeyword("asc"):
			p.next()
		case p.isKeyword("desc"):
			p.next()
			st.OrderDesc = true
		}
	}
	if p.isKeyword("limit") {
		p.next()
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		st.Limit = int(n)
	}

	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", t)
	}
	return st, nil
}

func (p *parser) filter() (Filter, error) {
	tbl, col, err := p.column()
	if err != nil {
		return Filter{}, err
	}
	f := Filter{Table: tbl, Col: col}
	t := p.peek()
	switch {
	case t.kind == tokSymbol && t.text == "=":
		p.next()
		f.Op = OpEq
	case t.kind == tokCompare:
		p.next()
		f.Op = FilterOp(t.text)
	case t.kind == tokIdent && t.text == "between":
		p.next()
		lo, err := p.number()
		if err != nil {
			return Filter{}, err
		}
		if err := p.keyword("and"); err != nil {
			return Filter{}, err
		}
		hi, err := p.number()
		if err != nil {
			return Filter{}, err
		}
		if lo > hi {
			return Filter{}, p.errf("BETWEEN bounds inverted: %d > %d", lo, hi)
		}
		f.Op, f.Value, f.Hi = OpBetween, lo, hi
		return f, nil
	default:
		return Filter{}, p.errf("expected comparison operator, found %s", t)
	}
	v, err := p.number()
	if err != nil {
		return Filter{}, err
	}
	f.Value = v
	return f, nil
}
