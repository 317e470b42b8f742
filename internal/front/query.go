package front

import (
	"context"
	"fmt"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/types"
	"umzi/internal/wildfire"
)

// Query is the fluent builder umzi.Query documents for users. It
// compiles a wildfire.QuerySpec and hands it at Run to its transport:
// the engine in process, the network client remotely.
type Query struct {
	run  func(context.Context, wildfire.QuerySpec) (*Rows, error)
	spec wildfire.QuerySpec
}

// NewQuery starts a builder over a transport: run executes the spec the
// builder compiles and returns its rows.
func NewQuery(run func(ctx context.Context, spec wildfire.QuerySpec) (*Rows, error)) *Query {
	return &Query{run: run}
}

// RunSpec runs a pre-built spec over q's transport, returning the rows
// q.Run would for the same builder calls. The server runs the specs
// that arrive over the wire through it.
func RunSpec(ctx context.Context, q *Query, spec wildfire.QuerySpec) (*Rows, error) {
	return q.run(ctx, spec)
}

// Where filters rows by a predicate (build with Eq/Lt/.../And/Or).
// Multiple calls AND their predicates.
func (q *Query) Where(e exec.Expr) *Query {
	if q.spec.Filter == nil {
		q.spec.Filter = e
	} else {
		q.spec.Filter = exec.And(q.spec.Filter, e)
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
// OrderBy, row-query results are unsorted. With a Limit they are the
// first Limit rows in encoded-value order; without one they come shard
// by shard in each shard's zone order, the same order for the same
// table state on either transport, but not across shard counts,
// layouts or grooms.
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
func (q *Query) Aggs(aggs ...exec.Agg) *Query {
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
func (q *Query) At(ts types.TS) *Query {
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
// the same trace. Traces are process-local: a remote transport refuses
// to run a query that carries one.
//
//	tr := q.Explain()
//	rows, err := q.Run(ctx)
//	... drain rows ...
//	fmt.Println(tr)
func (q *Query) Explain() *obs.QueryTrace {
	if q.spec.Trace == nil {
		q.spec.Trace = obs.NewQueryTrace()
	}
	return q.spec.Trace
}

// Run compiles the query and starts it over the builder's transport,
// returning a streaming Rows cursor. The context governs the whole
// result lifetime (see Rows): cancelling it — or closing the Rows early
// — stops per-shard workers, k-way merging and block fetches, and a
// remote stream sends its Cancel frame.
func (q *Query) Run(ctx context.Context) (*Rows, error) {
	return q.run(ctx, q.spec)
}

// All runs the query and materializes every row — a convenience for
// small results; prefer Run for large ones.
func (q *Query) All(ctx context.Context) ([][]keyenc.Value, error) {
	rows, err := q.Run(ctx)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]keyenc.Value
	for rows.Next() {
		out = append(out, append([]keyenc.Value(nil), rows.Values()...))
	}
	return out, rows.Err()
}

// One runs the query and returns its first row, with found=false when
// the result is empty.
func (q *Query) One(ctx context.Context) ([]keyenc.Value, bool, error) {
	rows, err := q.Limit(1).Run(ctx)
	if err != nil {
		return nil, false, err
	}
	defer rows.Close()
	if !rows.Next() {
		return nil, false, rows.Err()
	}
	return append([]keyenc.Value(nil), rows.Values()...), true, nil
}

// Count runs the query as COUNT(*) over its filter and returns the
// count. It cannot combine with Select/GroupBy/Aggs/OrderBy.
func (q *Query) Count(ctx context.Context) (int64, error) {
	if len(q.spec.Columns)+len(q.spec.GroupBy)+len(q.spec.Aggs)+len(q.spec.OrderBy) > 0 {
		return 0, fmt.Errorf("umzi: Count is a bare-filter convenience; build the aggregate explicitly instead")
	}
	q.spec.Aggs = []exec.Agg{{Func: exec.Count}}
	row, found, err := q.One(ctx)
	if err != nil || !found {
		return 0, err
	}
	return row[0].Int(), nil
}
