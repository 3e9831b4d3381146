// Package query is a small SQL front end over cyclo-join — a working slice
// of the "complete SQL-enabled system" the paper names as its ongoing
// research goal (§VII).
//
// Supported grammar (case-insensitive keywords):
//
//	SELECT ( COUNT(*) | * )
//	FROM table ( JOIN table ON table.col = table.col )*
//	( WHERE table.col op number ( AND table.col op number )* )?
//
// with op ∈ {=, <, <=, >, >=} and an additional BETWEEN lo AND hi form.
//
// Every registered relation exposes exactly one join-key column (the
// paper's workloads are key + opaque payload), so all join and filter
// predicates refer to that column; the parser resolves names against the
// catalog and rejects anything else. Every join is therefore on the one
// shared key, and a multi-table statement runs in one of two shapes, chosen
// from the row counts after WHERE (chooseShape): one revolution of the first
// table against all the others placed by key hash, each host chaining its
// share of them (core.Cluster.Revolve over key-placed sides); or, when the
// other tables are too large to be worth moving, as the paper sketches for
// ternary joins (§IV-A): a left-deep sequence of cyclo-join runs on the
// engine's one ring, each leaving its result distributed over the hosts — a
// host's share is what that host rotates in the next run. Either way the
// tables stay on the ring between statements (Engine).
package query

import (
	"fmt"
	"sort"
	"sync"

	"cyclojoin/internal/relation"
)

// Catalog maps table names to relations and their key-column names. It is
// safe for concurrent use: a table may be registered while queries run.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]catalogEntry
	version uint64 // of the last registration
}

type catalogEntry struct {
	rel *relation.Relation
	key string
	// version identifies this registration: every Register takes the next
	// one, so an engine's stationed form of a table is current exactly when
	// it was stationed at the table's version.
	version uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]catalogEntry)}
}

// Register adds a table under the given name, exposing keyColumn as its
// join-key column. Re-registering a name replaces the table; statements that
// start afterwards read the new one.
func (c *Catalog) Register(name, keyColumn string, rel *relation.Relation) error {
	if name == "" || keyColumn == "" {
		return fmt.Errorf("query: register needs a table and a key column name")
	}
	if rel == nil {
		return fmt.Errorf("query: register %s: nil relation", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
	c.tables[name] = catalogEntry{rel: rel, key: keyColumn, version: c.version}
	return nil
}

// Tables lists the registered table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// lookup returns the table's relation, key column and version as one
// registration left them.
func (c *Catalog) lookup(name string) (catalogEntry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[name]
	if !ok {
		return catalogEntry{}, fmt.Errorf("query: unknown table %q", name)
	}
	return e, nil
}

// Result is a query's outcome.
type Result struct {
	// Count is the row count (always populated).
	Count int64
	// Rows is the materialized output for SELECT *; nil for COUNT(*) and
	// aggregates. Without ORDER BY the row order is unspecified: a join's
	// rows are gathered host by host, and which host produces a row
	// depends on where the ring placed the inputs.
	Rows *relation.Relation
	// AggValue holds the SUM/MIN/MAX result over the selected key column;
	// nil when no aggregate was selected or no rows qualified (SQL NULL).
	AggValue *uint64
}
