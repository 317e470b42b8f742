package wildfire

import (
	"fmt"

	"umzi/internal/keyenc"
)

// Shard routing. Wildfire hash-partitions every table by its sharding key
// (§2.1): each shard runs its own engine — live zone, groomer,
// post-groomer and Umzi index instance — and transactions are routed to
// the shard that owns their rows. Queries either pin to one shard (the
// sharding key is fully determined by the query) or scatter to all of
// them.
//
// The router precomputes where each sharding-key column lives — its
// ordinal in the table row, and its position in the (equality, sort)
// query-key layout of the index spec — so that routing a row or a query
// key is a hash over a few values with no per-call column lookups.

// keyLocator says where one sharding-key column appears in a query key:
// in the equality values (fromSort false) or the sort values (fromSort
// true), at position idx within that group.
type keyLocator struct {
	fromSort bool
	idx      int
}

// shardRouter maps rows and query keys to their owning shard.
type shardRouter struct {
	n int // shard count

	// cols are the routing columns: the table's sharding key, or the full
	// primary key when no sharding key is declared.
	cols []string
	// rowIdx[i] is cols[i]'s ordinal in the table row.
	rowIdx []int
	// keyLoc[i] locates cols[i] in a query's (equality, sort) values.
	keyLoc []keyLocator
	// pinnable reports whether every routing column is an equality column
	// of the index spec: then any scan (which fixes all equality values)
	// is served by exactly one shard.
	pinnable bool
}

// newShardRouter builds the router for a validated table and index spec.
func newShardRouter(t TableDef, s IndexSpec, shards int) (*shardRouter, error) {
	cols := t.ShardKey
	if len(cols) == 0 {
		// No declared sharding key: partition by the full primary key.
		cols = t.PrimaryKey
	}
	r := &shardRouter{n: shards, cols: cols}
	for _, c := range cols {
		r.rowIdx = append(r.rowIdx, t.colIndex(c))
		loc, err := locateKeyColumn(s, c)
		if err != nil {
			return nil, err
		}
		r.keyLoc = append(r.keyLoc, loc)
	}
	r.pinnable = true
	for _, loc := range r.keyLoc {
		if loc.fromSort {
			r.pinnable = false
			break
		}
	}
	return r, nil
}

// locateKeyColumn finds a column's position in the index key layout. The
// sharding key is a subset of the primary key and the index key covers
// the whole primary key, so every routing column is found.
func locateKeyColumn(s IndexSpec, col string) (keyLocator, error) {
	for i, c := range s.Equality {
		if c == col {
			return keyLocator{fromSort: false, idx: i}, nil
		}
	}
	for i, c := range s.Sort {
		if c == col {
			return keyLocator{fromSort: true, idx: i}, nil
		}
	}
	return keyLocator{}, fmt.Errorf("wildfire: sharding column %q not covered by the index key", col)
}

// shardOfRow returns the shard owning a row.
func (r *shardRouter) shardOfRow(row Row) int {
	var scratch [4]keyenc.Value
	vals := scratch[:0]
	for _, i := range r.rowIdx {
		vals = append(vals, row[i])
	}
	return int(keyenc.HashValues(vals) % uint64(r.n))
}

// shardOfKey returns the shard owning a full query key (all equality and
// sort values present, as in a point get or GetBatch).
func (r *shardRouter) shardOfKey(eq, sortv []keyenc.Value) int {
	var scratch [4]keyenc.Value
	vals := scratch[:0]
	for _, loc := range r.keyLoc {
		if loc.fromSort {
			vals = append(vals, sortv[loc.idx])
		} else {
			vals = append(vals, eq[loc.idx])
		}
	}
	return int(keyenc.HashValues(vals) % uint64(r.n))
}

// pinScan returns the single shard able to serve a scan with the given
// equality values, or ok=false when the scan must scatter to all shards
// (some routing column is a sort column, so rows matching the scan live
// on different shards).
func (r *shardRouter) pinScan(eq []keyenc.Value) (int, bool) {
	if !r.pinnable {
		return 0, false
	}
	var scratch [4]keyenc.Value
	vals := scratch[:0]
	for _, loc := range r.keyLoc {
		vals = append(vals, eq[loc.idx])
	}
	return int(keyenc.HashValues(vals) % uint64(r.n)), true
}
