package umzi

import (
	"context"
	"fmt"

	"umzi/internal/obs"
	"umzi/internal/wildfire"
)

// Query is the one query surface of a Table: a fluent builder compiled
// at Run into the cheapest access path that serves it — point get,
// index scan, index-only scan, or a pushed-down executor plan — by the
// planner in internal/wildfire: the predicate goes into Where, and the
// planner makes the access-path decision.
//
//	rows, err := tbl.Query().
//	    Where(umzi.Eq("customer", umzi.I64(7))).
//	    Select("order", "total").
//	    OrderBy("order").
//	    Limit(100).
//	    Run(ctx)
//
// Builders are single-use and not safe for concurrent use; each method
// returns the receiver for chaining.
type Query struct {
	tbl  *Table
	spec wildfire.QuerySpec
}

// Where filters rows by a predicate (build with Eq/Lt/.../And/Or).
// Multiple calls AND their predicates.
func (q *Query) Where(e Expr) *Query {
	if q.spec.Filter == nil {
		q.spec.Filter = e
	} else {
		q.spec.Filter = And(q.spec.Filter, e)
	}
	return q
}

// Select projects the result to the named columns (default: all table
// columns). Row queries only; aggregate output is GroupBy + Aggs.
func (q *Query) Select(cols ...string) *Query {
	q.spec.Columns = cols
	return q
}

// OrderBy asks for rows ordered by the named columns. Order is served
// from an index whose sort columns start with them (and whose equality
// columns the filter pins); Run fails when no index qualifies. Without
// OrderBy, row-query results come in the executor's deterministic
// encoded-value order.
func (q *Query) OrderBy(cols ...string) *Query {
	q.spec.OrderBy = cols
	return q
}

// GroupBy groups an aggregate query by the named columns.
func (q *Query) GroupBy(cols ...string) *Query {
	q.spec.GroupBy = cols
	return q
}

// Aggs requests aggregates; the result carries one row per group
// (GroupBy values first, then one value per aggregate), ordered by
// group key.
func (q *Query) Aggs(aggs ...Agg) *Query {
	q.spec.Aggs = append(q.spec.Aggs, aggs...)
	return q
}

// Limit caps the result rows; 0 means unlimited. The limit is pushed
// into per-shard scans and stops the scatter-gather merge early.
func (q *Query) Limit(n int) *Query {
	q.spec.Limit = n
	return q
}

// At pins the snapshot timestamp (time travel); zero reads the newest
// groomed snapshot.
func (q *Query) At(ts TS) *Query {
	q.spec.TS = ts
	return q
}

// Via forces the named index ("" is the primary) instead of letting the
// planner choose; the filter must pin the index's equality columns.
func (q *Query) Via(index string) *Query {
	q.spec.Via = index
	q.spec.ViaSet = true
	return q
}

// IncludeLive unions committed-but-ungroomed records into point gets
// and executor plans, trading latency for freshness. Index-ordered
// scans (OrderBy / Via) serve the indexed zones only.
func (q *Query) IncludeLive() *Query {
	q.spec.IncludeLive = true
	return q
}

// NoIndex forces executor plans to scan the columnar zones even when
// the filter matches an index (baselines, ablations).
func (q *Query) NoIndex() *Query {
	q.spec.NoIndexSelection = true
	return q
}

// Explain attaches a trace to the query and returns it. Run the query,
// then read the trace: the compiled plan choice, per-shard spans,
// blocks read vs. synopsis-skipped, live-union sizes, back-check counts
// and rows emitted. The trace settles as the result streams — drain or
// close the Rows before reading totals. Calling Explain again returns
// the same trace.
//
//	tr := q.Explain()
//	rows, err := q.Run(ctx)
//	... drain rows ...
//	fmt.Println(tr)
func (q *Query) Explain() *QueryTrace {
	if q.spec.Trace == nil {
		q.spec.Trace = obs.NewQueryTrace()
	}
	return q.spec.Trace
}

// Run compiles the query and starts it, returning a streaming Rows
// cursor. The context governs the whole result lifetime: cancelling it
// — or closing the Rows early — stops per-shard workers, k-way merging
// and block fetches.
func (q *Query) Run(ctx context.Context) (*Rows, error) {
	return q.tbl.RunSpec(ctx, q.spec)
}

// All runs the query and materializes every row — a convenience for
// small results; prefer Run for large ones.
func (q *Query) All(ctx context.Context) ([][]Value, error) {
	rows, err := q.Run(ctx)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]Value
	for rows.Next() {
		out = append(out, append([]Value(nil), rows.Values()...))
	}
	return out, rows.Err()
}

// One runs the query and returns its first row, with found=false when
// the result is empty.
func (q *Query) One(ctx context.Context) ([]Value, bool, error) {
	rows, err := q.Limit(1).Run(ctx)
	if err != nil {
		return nil, false, err
	}
	defer rows.Close()
	if !rows.Next() {
		return nil, false, rows.Err()
	}
	return append([]Value(nil), rows.Values()...), true, nil
}

// Count runs the query as COUNT(*) over its filter and returns the
// count. It cannot combine with Select/GroupBy/Aggs/OrderBy.
func (q *Query) Count(ctx context.Context) (int64, error) {
	if len(q.spec.Columns)+len(q.spec.GroupBy)+len(q.spec.Aggs)+len(q.spec.OrderBy) > 0 {
		return 0, fmt.Errorf("umzi: Count is a bare-filter convenience; build the aggregate explicitly instead")
	}
	q.spec.Aggs = []Agg{{Func: AggCount}}
	row, found, err := q.One(ctx)
	if err != nil || !found {
		return 0, err
	}
	return row[0].Int(), nil
}
