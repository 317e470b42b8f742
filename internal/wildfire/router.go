package wildfire

import "umzi/internal/keyenc"

// Shard routing. Wildfire hash-partitions every table by its sharding key
// (§2.1): each shard runs its own engine — live zone, groomer,
// post-groomer and Umzi index instance — and transactions are routed to
// the shard that owns their rows. Queries either pin to one shard (the
// sharding key is fully determined by the query) or scatter to all of
// them.
//
// The routing columns are the table's sharding key, or the full primary
// key when none is declared (TableDef.routeCols). The router knows their
// ordinals in a table row; every index knows their positions in its own
// decoded layout (tableIndex.route), so routing a row or a query key is a
// hash over a few values with no per-call column lookups, and one pin
// rule serves the primary and every secondary.

// shardRouter maps rows and query keys to their owning shard.
type shardRouter struct {
	n int // shard count
	// rowIdx[i] is the i-th routing column's ordinal in the table row.
	rowIdx []int
}

// newShardRouter builds the router for a validated table.
func newShardRouter(t TableDef, shards int) *shardRouter {
	r := &shardRouter{n: shards}
	for _, c := range t.routeCols() {
		r.rowIdx = append(r.rowIdx, t.colIndex(c))
	}
	return r
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

// shardOfKey returns the shard owning a full key of index ti (all
// equality and sort values present, as in a point get or GetBatch). The
// routing columns are primary-key columns, which every index carries in
// its key, so each route position falls in eq or sortv.
func (r *shardRouter) shardOfKey(ti *tableIndex, eq, sortv []keyenc.Value) int {
	var scratch [4]keyenc.Value
	vals := scratch[:0]
	for _, p := range ti.route {
		if p < len(eq) {
			vals = append(vals, eq[p])
		} else {
			vals = append(vals, sortv[p-len(eq)])
		}
	}
	return int(keyenc.HashValues(vals) % uint64(r.n))
}

// pin returns the single shard able to serve a scan of index ti with the
// given equality values, or ok=false when the scan must scatter: some
// routing column is not an equality column of ti, so rows matching the
// scan live on different shards. A 1-shard table always pins.
func (r *shardRouter) pin(ti *tableIndex, eq []keyenc.Value) (int, bool) {
	if r.n == 1 {
		return 0, true
	}
	for _, p := range ti.route {
		if p >= len(ti.spec.Equality) {
			return 0, false
		}
	}
	return r.shardOfKey(ti, eq, nil), true
}
