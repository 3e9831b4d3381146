// Command cyclosql is an interactive SQL shell over cyclo-join: register
// tables (from datagen files or generated on the fly), then run join
// queries that execute as cyclo-join revolutions on a local ring.
//
// Usage:
//
//	cyclosql -nodes 4 \
//	    -table orders=orders.rel:cust_id \
//	    -table customers=customers.rel:id \
//	    -q "SELECT COUNT(*) FROM orders JOIN customers ON orders.cust_id = customers.id"
//
//	cyclosql -demo          # built-in demo catalog, then a REPL on stdin
//
// Supported SQL: SELECT COUNT(*) | SUM/MIN/MAX(t.col) | * with JOIN ... ON
// chains, WHERE conjuncts (=, <, <=, >, >=, BETWEEN), ORDER BY and LIMIT;
// prefix any query with EXPLAIN to see the cyclo-join plan with cost and
// cardinality estimates instead of running it.
//
// Table syntax: name=file.rel:keycolumn (files in the datagen wire
// format). Without -q, queries are read line by line from stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cyclojoin/internal/join"
	"cyclojoin/internal/query"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// tableFlags collects repeated -table arguments.
type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, ",") }

func (t *tableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var tables tableFlags
	flag.Var(&tables, "table", "table to register: name=file.rel:keycolumn (repeatable)")
	nodes := flag.Int("nodes", 4, "ring size for join execution")
	threads := flag.Int("threads", 2, "join threads per host")
	q := flag.String("q", "", "single query to run (default: REPL on stdin)")
	demo := flag.Bool("demo", false, "load a built-in demo catalog (orders, customers, loyalty)")
	flag.Parse()

	catalog := query.NewCatalog()
	if *demo {
		if err := loadDemo(catalog); err != nil {
			fmt.Fprintln(os.Stderr, "cyclosql:", err)
			return 1
		}
	}
	for _, spec := range tables {
		if err := loadTable(catalog, spec); err != nil {
			fmt.Fprintln(os.Stderr, "cyclosql:", err)
			return 1
		}
	}
	if len(catalog.Tables()) == 0 {
		fmt.Fprintln(os.Stderr, "cyclosql: no tables registered (use -table or -demo)")
		return 2
	}
	engine, err := query.NewEngine(catalog, *nodes, join.Options{Parallelism: *threads})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclosql:", err)
		return 1
	}
	// The engine builds its ring on the first join and keeps it warm for
	// every later line of the session.
	defer func() {
		_ = engine.Close()
	}()
	fmt.Printf("tables: %s\n", strings.Join(catalog.Tables(), ", "))

	if *q != "" {
		return runQuery(engine, *q)
	}
	fmt.Println("enter SQL (one query per line, ctrl-D to exit):")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("cyclosql> ")
		if !scanner.Scan() {
			fmt.Println()
			return 0
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "exit") || strings.EqualFold(line, "quit") {
			return 0
		}
		runQuery(engine, line)
	}
}

func runQuery(engine *query.Engine, sql string) int {
	trimmed := strings.TrimSpace(sql)
	if len(trimmed) > 8 && strings.EqualFold(trimmed[:8], "explain ") {
		plan, err := engine.Explain(trimmed[8:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		fmt.Print(plan)
		return 0
	}
	start := time.Now()
	res, err := engine.Execute(sql)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	switch {
	case res.AggValue != nil:
		fmt.Printf("aggregate = %d over %d rows in %v\n", *res.AggValue, res.Count, elapsed)
	case res.Rows != nil:
		fmt.Printf("%d rows (%d B materialized) in %v\n", res.Count, res.Rows.Bytes(), elapsed)
	default:
		fmt.Printf("count = %d in %v\n", res.Count, elapsed)
	}
	return 0
}

// loadTable parses name=file.rel:keycolumn and registers the relation.
func loadTable(catalog *query.Catalog, spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("bad -table %q: want name=file.rel:keycolumn", spec)
	}
	file, keyCol, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("bad -table %q: missing :keycolumn", spec)
	}
	buf, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("load %s: %w", name, err)
	}
	frag, err := relation.Decode(buf, name)
	if err != nil {
		return fmt.Errorf("decode %s: %w", name, err)
	}
	if err := catalog.Register(strings.ToLower(name), strings.ToLower(keyCol), frag.Rel); err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d tuples from %s (key column %s)\n", name, frag.Rel.Len(), file, keyCol)
	return nil
}

// loadDemo registers a small generated warehouse.
func loadDemo(catalog *query.Catalog) error {
	customers := workload.Sequential("customers", 50_000, 8)
	orders, err := workload.Generate(workload.Spec{
		Name: "orders", Tuples: 250_000, KeyDomain: 50_000, Zipf: 0.5, Seed: 2, PayloadWidth: 8,
	})
	if err != nil {
		return err
	}
	loyalty, err := workload.Generate(workload.Spec{
		Name: "loyalty", Tuples: 10_000, KeyDomain: 50_000, Seed: 3, PayloadWidth: 4,
	})
	if err != nil {
		return err
	}
	for _, reg := range []struct {
		name, key string
		rel       *relation.Relation
	}{
		{"customers", "id", customers},
		{"orders", "cust_id", orders},
		{"loyalty", "cust_id", loyalty},
	} {
		if err := catalog.Register(reg.name, reg.key, reg.rel); err != nil {
			return err
		}
	}
	return nil
}
