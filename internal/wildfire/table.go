// Package wildfire implements the HTAP engine substrate Umzi lives in
// (§2.1 of the paper): the live zone's committed logs, which every
// commit enters through one shard append (shard.commit), the groomer
// that migrates committed data into columnar groomed blocks with
// monotonic beginTS, the post-groomer that resolves
// endTS/prevRID and re-organizes data by partition key, and the indexer
// that keeps the Umzi index in sync through build and evolve operations
// coordinated by post-groom sequence numbers (Figure 5). A table runs
// these as one propagation owner and merges as one index maintainer
// (ShardedEngine.Start).
//
// ShardedEngine is the one exported engine: a table of N>=1 shards, each
// the basic unit of grooming, post-grooming and indexing (§2.1, §3) with
// one committed log, the tail of its durable commit log. A shard is
// unexported; the table routes to it.
package wildfire

import (
	"fmt"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// TableColumn describes one table column; it is the columnar package's
// column descriptor, aliased so engine users need not import it.
type TableColumn = columnar.Column

// TableDef defines a Wildfire table: user columns, a primary key, a
// sharding key that is a subset of the primary key (used to route
// transactions), and an optional partition key used by the post-groomer
// to organize data for analytics (§2.1).
type TableDef struct {
	Name         string
	Columns      []columnar.Column
	PrimaryKey   []string
	ShardKey     []string
	PartitionKey string // empty: no analytic partitioning
}

// Hidden column names added to every table (§2.1): beginTS tracks when a
// record version was ingested, endTS when it was replaced, prevRID the
// location of the previous version of the same key.
const (
	ColBeginTS = "_beginTS"
	ColEndTS   = "_endTS"
	ColPrevRID = "_prevRID"
)

// Validate checks the definition for consistency.
func (t TableDef) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("wildfire: table needs a name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("wildfire: table %s has no columns", t.Name)
	}
	cols := map[string]bool{}
	for _, c := range t.Columns {
		if c.Name == "" {
			return fmt.Errorf("wildfire: empty column name in %s", t.Name)
		}
		if c.Name[0] == '_' {
			return fmt.Errorf("wildfire: column %q: names starting with _ are reserved for hidden columns", c.Name)
		}
		if cols[c.Name] {
			return fmt.Errorf("wildfire: duplicate column %q", c.Name)
		}
		cols[c.Name] = true
	}
	if len(t.PrimaryKey) == 0 {
		return fmt.Errorf("wildfire: table %s needs a primary key (all writes are upserts on it)", t.Name)
	}
	pk := map[string]bool{}
	for _, k := range t.PrimaryKey {
		if !cols[k] {
			return fmt.Errorf("wildfire: primary key column %q not in table", k)
		}
		if pk[k] {
			return fmt.Errorf("wildfire: duplicate primary key column %q", k)
		}
		pk[k] = true
	}
	for _, k := range t.ShardKey {
		if !pk[k] {
			return fmt.Errorf("wildfire: shard key column %q must be part of the primary key", k)
		}
	}
	if t.PartitionKey != "" && !cols[t.PartitionKey] {
		return fmt.Errorf("wildfire: partition key column %q not in table", t.PartitionKey)
	}
	return nil
}

// routeCols returns the columns rows hash by to pick their shard: the
// sharding key, or the full primary key when none is declared.
func (t TableDef) routeCols() []string {
	if len(t.ShardKey) == 0 {
		return t.PrimaryKey
	}
	return t.ShardKey
}

// colIndex returns the ordinal of a named user column.
func (t TableDef) colIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// blockSchema returns the columnar schema of groomed and post-groomed
// blocks: the user columns followed by the three hidden columns.
func (t TableDef) blockSchema() (*columnar.Schema, error) {
	cols := append([]columnar.Column(nil), t.Columns...)
	cols = append(cols,
		columnar.Column{Name: ColBeginTS, Kind: keyenc.KindUint64},
		columnar.Column{Name: ColEndTS, Kind: keyenc.KindUint64},
		columnar.Column{Name: ColPrevRID, Kind: keyenc.KindBytes},
	)
	return columnar.NewSchema(cols...)
}

// Row is one table row: values aligned with TableDef.Columns.
type Row []keyenc.Value

// ValidateRow checks arity and kinds against the table definition; the
// DB layer validates staged rows eagerly with it.
func ValidateRow(t TableDef, r Row) error { return t.validateRow(r) }

// validateRow checks arity and kinds against the table definition.
func (t TableDef) validateRow(r Row) error {
	if len(r) != len(t.Columns) {
		return fmt.Errorf("wildfire: row has %d values, table %s has %d columns", len(r), t.Name, len(t.Columns))
	}
	for i, v := range r {
		want := t.Columns[i].Kind
		got := v.Kind()
		ok := got == want ||
			(want == keyenc.KindBytes && got == keyenc.KindString) ||
			(want == keyenc.KindString && got == keyenc.KindBytes)
		if !ok {
			return fmt.Errorf("wildfire: column %q: value kind %v, want %v", t.Columns[i].Name, got, want)
		}
	}
	return nil
}

// appendPK appends the encodings of a row's primary-key values, in PK
// declaration order, to dst.
func (t TableDef) appendPK(dst []byte, r Row) []byte {
	for _, k := range t.PrimaryKey {
		dst = keyenc.Append(dst, r[t.colIndex(k)])
	}
	return dst
}

// pkEncoding is the canonical byte encoding of a row's primary key; the
// groomer and post-groomer use it to group versions of the same key.
func (t TableDef) pkEncoding(r Row) string {
	return string(t.appendPK(nil, r))
}

// IndexSpec selects the index key layout over a table (§4.1). Because the
// engine uses Umzi as the primary index, the equality and sort columns
// together must equal the primary key.
type IndexSpec struct {
	Equality []string
	Sort     []string
	Included []string
	HashBits uint8
}

// Validate checks the spec against a table definition.
func (s IndexSpec) Validate(t TableDef) error {
	pk := map[string]bool{}
	for _, k := range t.PrimaryKey {
		pk[k] = true
	}
	keyCols := map[string]bool{}
	for _, group := range [][]string{s.Equality, s.Sort} {
		for _, c := range group {
			if t.colIndex(c) < 0 {
				return fmt.Errorf("wildfire: index column %q not in table", c)
			}
			if keyCols[c] {
				return fmt.Errorf("wildfire: duplicate index key column %q", c)
			}
			keyCols[c] = true
			if !pk[c] {
				return fmt.Errorf("wildfire: index key column %q outside the primary key (Umzi serves as the primary index)", c)
			}
		}
	}
	if len(keyCols) != len(t.PrimaryKey) {
		return fmt.Errorf("wildfire: index key columns must cover the whole primary key (%v)", t.PrimaryKey)
	}
	for _, c := range s.Included {
		if t.colIndex(c) < 0 {
			return fmt.Errorf("wildfire: included column %q not in table", c)
		}
		if keyCols[c] {
			return fmt.Errorf("wildfire: included column %q already a key column", c)
		}
	}
	return nil
}

// rid formats used by engine storage objects.
func groomedBlockName(table string, id uint64) string {
	return fmt.Sprintf("tbl/%s/groomed/block-%012d", table, id)
}

func postBlockName(table string, id uint64) string {
	return fmt.Sprintf("tbl/%s/post/block-%012d", table, id)
}

func psnMetaName(table string, psn types.PSN) string {
	return fmt.Sprintf("tbl/%s/psn/%012d", table, psn)
}

func endTSName(table string, psn types.PSN) string {
	return fmt.Sprintf("tbl/%s/endts/%012d", table, psn)
}
