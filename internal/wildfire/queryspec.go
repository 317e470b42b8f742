package wildfire

import (
	"context"
	"fmt"
	"time"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/types"
)

// The planner entry point behind the unified query surface. A QuerySpec
// is the declarative form of one table query — what the DB layer's
// fluent builder lowers to — and RunQuery compiles it into one of four
// access paths, reusing the executor's constraint extraction and the
// index set's own selection machinery:
//
//   - point get: the filter pins the whole primary key with equality
//     constraints — one index lookup, one block fetch;
//   - index scan: a forced (Via) or order-serving (OrderBy) index with
//     its equality columns pinned — the verified index stream
//     (indexStream), a record fetch per row;
//   - index-only scan: the same stream, when the index covers every
//     referenced column — rows come from the decoded entries and no
//     data block is ever touched;
//   - executor plan: everything else — aggregates, unordered row
//     queries, non-conjunctive filters — evaluated block-at-a-time with
//     the executor's own per-shard index selection (chooseIndex).
//
// The two index modes are one path, labelled apart only in traces and
// metrics: each shard's stream builds, filters and projects its rows in
// its own worker, and the coordinator merges the shards on entry key
// bytes. Results stream: RunQuery returns a QueryRows whose cursor
// pulls rows lazily and honors the context, so early close and
// cancellation propagate into per-shard workers and block fetches.

// QuerySpec is one declarative table query.
type QuerySpec struct {
	// Filter keeps the rows the predicate accepts; nil keeps everything.
	Filter exec.Expr
	// Columns projects a row query; empty selects all table columns.
	// Must be empty for aggregate queries (use GroupBy).
	Columns []string
	// OrderBy asks for rows ordered by these columns. Order is served
	// from an index whose sort columns start with OrderBy and whose
	// equality columns the filter pins; compilation fails when no index
	// qualifies. Empty leaves row queries unsorted: their rows come in
	// the executor's shard-by-shard zone order (execPartials),
	// repeatable on one table state, and a Limit keeps the first Limit
	// of them.
	OrderBy []string
	// GroupBy names the grouping columns of an aggregate query.
	GroupBy []string
	// Aggs requests aggregation; empty makes this a row query.
	Aggs []exec.Agg
	// Limit truncates the result to its first Limit rows; 0 means
	// unlimited. A limited result is a prefix of the unlimited one on
	// the same table state.
	Limit int
	// TS is the snapshot timestamp; zero selects the newest groomed
	// snapshot — one cut across shards (SnapshotTS), except with
	// IncludeLive, where each shard reads at its own groom boundary.
	TS types.TS
	// IncludeLive unions committed-but-ungroomed records into point gets
	// and executor plans (index scans serve the indexed zones only). At
	// the default TS every shard reads its own newest groomed version
	// plus its live zone, so a groom round that has reached only some
	// shards hides no row.
	IncludeLive bool
	// NoIndexSelection forces executor plans to scan the zones even when
	// the filter matches an index (baselines, ablations).
	NoIndexSelection bool
	// Via forces the named index ("" is the primary) when ViaSet is
	// true; the filter must pin the index's equality columns.
	Via    string
	ViaSet bool
	// Trace, when set, captures the compiled plan choice and per-shard
	// execution profile of the run (Query.Explain attaches one). Nil is a
	// no-op.
	Trace *obs.QueryTrace
}

// QueryRows is a streaming query result: output column names plus a
// cursor of result rows, each aligned with Columns.
type QueryRows struct {
	Columns []string
	Cursor  *Cursor[[]keyenc.Value]
}

// Close closes the underlying cursor.
func (r *QueryRows) Close() error { return r.Cursor.Close() }

// queryMode enumerates the compiled access paths.
type queryMode int

const (
	modeExec queryMode = iota
	modePointGet
	modeIndexScan
	modeIndexOnly
)

// compiledQuery is one QuerySpec lowered to an access path.
type compiledQuery struct {
	spec  QuerySpec
	bound *exec.BoundPlan
	mode  queryMode

	// Index modes: the index, its scan and the table-column ordinals of
	// the output columns. A point get keeps its full key in scan.eq
	// (equality) and scan.lo (sort).
	ti      *tableIndex
	scan    indexScan
	project []int
}

// planQuery compiles a spec against a table and its index set. The
// index set is planning metadata only — RunQuery passes shard 0's set
// (identical on every shard, like the executor's per-shard chooseIndex
// relies on).
func planQuery(t TableDef, indexes []*tableIndex, spec QuerySpec) (*compiledQuery, error) {
	bound, err := exec.Plan{
		Filter:  spec.Filter,
		Columns: spec.Columns,
		GroupBy: spec.GroupBy,
		Aggs:    spec.Aggs,
		Limit:   spec.Limit,
	}.Bind(t.Columns)
	if err != nil {
		return nil, err
	}
	cq := &compiledQuery{spec: spec, bound: bound}

	if len(spec.Aggs) > 0 {
		if len(spec.OrderBy) > 0 {
			return nil, fmt.Errorf("wildfire: OrderBy applies to row queries; aggregate results are ordered by group key")
		}
		if spec.ViaSet {
			return nil, fmt.Errorf("wildfire: Via cannot combine with aggregates (the executor selects the index)")
		}
		cq.mode = modeExec
		return cq, nil
	}

	// Row query: Bind already resolved the projection (defaulting to all
	// table columns) to ordinals.
	cq.project = bound.Projection()

	cons, consOK := exec.ExtractConstraints(spec.Filter)
	kindOf := func(col string) keyenc.Kind { return t.Columns[t.colIndex(col)].Kind }
	pinned := func(col string) bool {
		if !consOK {
			return false
		}
		v, ok := cons.Eq[col]
		return ok && kindCompatible(v.Kind(), kindOf(col))
	}

	switch {
	case spec.ViaSet:
		ti := findIndexMeta(indexes, spec.Via)
		if ti == nil {
			return nil, fmt.Errorf("wildfire: table %s has no index %q", t.Name, spec.Via)
		}
		if len(spec.OrderBy) > 0 && !servesOrder(ti, spec.OrderBy) {
			return nil, fmt.Errorf("wildfire: index %q cannot serve ORDER BY %v (its sort columns are %v)",
				spec.Via, spec.OrderBy, ti.spec.Sort[:ti.userSort])
		}
		if err := cq.bindIndexScan(t, ti, cons, pinned); err != nil {
			return nil, err
		}
	case len(spec.OrderBy) > 0:
		var ti *tableIndex
		for _, cand := range indexes {
			if servesOrder(cand, spec.OrderBy) && scannable(cand, pinned) {
				ti = cand
				break
			}
		}
		if ti == nil {
			return nil, fmt.Errorf("wildfire: no index of table %s can serve ORDER BY %v (need an index sorted on it with its equality columns pinned by the filter)", t.Name, spec.OrderBy)
		}
		if err := cq.bindIndexScan(t, ti, cons, pinned); err != nil {
			return nil, err
		}
	default:
		// Point get when the whole primary key is pinned; the executor
		// otherwise (it performs its own index selection and unions the
		// live zone).
		primary := indexes[0]
		full := true
		for _, group := range [][]string{primary.spec.Equality, primary.spec.Sort} {
			for _, c := range group {
				if !pinned(c) {
					full = false
				}
			}
		}
		if full && !spec.NoIndexSelection {
			cq.mode = modePointGet
			cq.ti = primary
			for _, c := range primary.spec.Equality {
				cq.scan.eq = append(cq.scan.eq, cons.Eq[c])
			}
			for _, c := range primary.spec.Sort {
				cq.scan.lo = append(cq.scan.lo, cons.Eq[c])
			}
			return cq, nil
		}
		cq.mode = modeExec
	}
	return cq, nil
}

// bindIndexScan lowers a row query onto one index: scan bounds from the
// constraints, the covered test deciding index-only vs record fetches,
// and whether the bounds absorb the whole filter (then the residual
// re-check drops nothing, and the row limit may bound the index walk).
func (cq *compiledQuery) bindIndexScan(t TableDef, ti *tableIndex, cons exec.IndexConstraints, pinned func(string) bool) error {
	for _, c := range ti.spec.Equality {
		if !pinned(c) {
			return fmt.Errorf("wildfire: index %q needs the filter to pin equality column %q", ti.name, c)
		}
	}
	cq.ti = ti
	eq, lo, hi, consumed := ti.indexScanBounds(t, cons)
	covered := ti.coversOrdinals(cq.bound.ReferencedOrdinals())
	cq.mode = modeIndexScan
	if covered {
		cq.mode = modeIndexOnly
	}
	cq.scan = indexScan{index: ti.name, eq: eq, lo: lo, hi: hi, limit: cq.spec.Limit,
		exact: filterAbsorbed(cq.spec.Filter, consumed), decode: covered}
	return nil
}

// filterAbsorbed reports whether scan bounds that consumed the listed
// columns represent the filter exactly: the filter must be a lossless
// conjunction of Eq/Ge/Le (exec.ExactConstraints), every constrained
// column must be consumed, and no column's equality pin may contradict
// its own range (the bounds keep the pin; the range would reject it).
func filterAbsorbed(filter exec.Expr, consumed map[string]bool) bool {
	cons, exact := exec.ExactConstraints(filter)
	if !exact {
		return false
	}
	for col := range cons.Columns() {
		if !consumed[col] {
			return false
		}
	}
	for col, v := range cons.Eq {
		if lo, ok := cons.Lo[col]; ok && keyenc.Compare(lo, v) > 0 {
			return false
		}
		if hi, ok := cons.Hi[col]; ok && keyenc.Compare(hi, v) < 0 {
			return false
		}
	}
	return true
}

// servesOrder reports whether an index's user-declared sort columns
// start with the requested order.
func servesOrder(ti *tableIndex, orderBy []string) bool {
	if len(orderBy) > ti.userSort {
		return false
	}
	for i, c := range orderBy {
		if ti.spec.Sort[i] != c {
			return false
		}
	}
	return true
}

// scannable reports whether a filter pins every equality column of the
// index (trivially true for pure range indexes).
func scannable(ti *tableIndex, pinned func(string) bool) bool {
	for _, c := range ti.spec.Equality {
		if !pinned(c) {
			return false
		}
	}
	return true
}

// findIndexMeta resolves an index by name in a planning set.
func findIndexMeta(indexes []*tableIndex, name string) *tableIndex {
	for _, ti := range indexes {
		if ti.name == name {
			return ti
		}
	}
	return nil
}

// runCompiled executes a compiled query across the table's shards.
func (s *ShardedEngine) runCompiled(ctx context.Context, cq *compiledQuery) (*QueryRows, error) {
	spec := cq.spec
	opts := QueryOptions{TS: spec.TS, IncludeLive: spec.IncludeLive, NoIndexSelection: spec.NoIndexSelection, Trace: spec.Trace}
	spec.Trace.SetPlan(planLabel(cq.mode), cq.scan.index)

	switch cq.mode {
	case modePointGet:
		rec, found, err := s.get(ctx, cq.scan.eq, cq.scan.lo, opts)
		if err != nil {
			return nil, err
		}
		emitted := false
		fetch := func() ([]keyenc.Value, bool, error) {
			if emitted || !found {
				return nil, false, ctx.Err()
			}
			emitted = true
			row := rec.Row
			if !cq.bound.Matches(func(c int) keyenc.Value { return row[c] }) {
				return nil, false, ctx.Err()
			}
			return projectRow(row, cq.project), true, nil
		}
		return &QueryRows{Columns: cq.bound.Columns(), Cursor: newCursor(fetch, nil)}, nil

	case modeIndexScan, modeIndexOnly:
		cur, err := tableIndexStream(ctx, s, cq.scan, opts, cq.indexRow)
		if err != nil {
			return nil, err
		}
		return &QueryRows{Columns: cq.bound.Columns(), Cursor: cur}, nil

	default: // modeExec
		parts, err := s.execPartials(ctx, cq.bound, spec.Filter, opts)
		if err != nil {
			return nil, err
		}
		it := cq.bound.FinalizeIter(parts...)
		fetch := func() ([]keyenc.Value, bool, error) {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			row, ok := it.Next()
			return row, ok, nil
		}
		return &QueryRows{Columns: it.Columns(), Cursor: newCursor(fetch, nil)}, nil
	}
}

// indexRow is an index plan's row step: the verified entry's row —
// decoded when the index covers the query, fetched by RID otherwise —
// through the residual filter, projected to the output columns.
func (cq *compiledQuery) indexRow(ctx context.Context, e *shard, ve verifiedEntry) ([]keyenc.Value, bool, error) {
	view, err := e.entryView(ctx, cq.ti, ve, cq.mode == modeIndexOnly)
	if err != nil || !cq.bound.Matches(view) {
		return nil, false, err
	}
	out := make([]keyenc.Value, len(cq.project))
	for i, ord := range cq.project {
		out[i] = view(ord)
	}
	return out, true, nil
}

func projectRow(row Row, ords []int) []keyenc.Value {
	out := make([]keyenc.Value, len(ords))
	for i, ord := range ords {
		out[i] = row[ord]
	}
	return out
}

// execPartials pushes a bound plan into every shard in parallel through
// the scatter-gather pool: each shard reduces its blocks and live
// records to an exec.Partial, and the coordinator merges the partial
// aggregates — sum/count pairs and per-group accumulator maps, never
// rows — at finalize. Row-shaped plans are the exception: shards return
// their qualifying projected rows, which leave unsorted: shard by shard
// in shard order, and within a shard in the order the shard added them
// — post-groomed blocks, then pending winners, each in zone order, then
// live rows in commit-sequence order (an index plan adds its verified
// entries in index order, then live rows). One table state therefore
// gives one row order; another shard count, layout or groom may give
// another. A limited plan's partials keep their first Limit rows, and
// finalize stops after the first Limit rows of that same order, so its
// result is a prefix of the unlimited one. Index selection runs per
// shard: every shard holds the same index set, so the (deterministic)
// rule picks the same access path everywhere.
func (s *ShardedEngine) execPartials(ctx context.Context, bound *exec.BoundPlan, filter exec.Expr, opts QueryOptions) ([]*exec.Partial, error) {
	parts := make([]*exec.Partial, len(s.shards))
	err := s.pool.each(ctx, len(s.shards), func(i int) error {
		part, err := s.shards[i].executePlan(ctx, bound, filter, opts)
		parts[i] = part
		return err
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// RunQuery compiles and runs one declarative query across all shards,
// returning a streaming result — the only read entry point below the
// query builder. Planning uses shard 0's index set, identical on every
// shard by construction.
func (s *ShardedEngine) RunQuery(ctx context.Context, spec QuerySpec) (*QueryRows, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("wildfire: engine closed")
	}
	if spec.TS == 0 && !spec.IncludeLive {
		spec.TS = s.SnapshotTS()
	}
	start := time.Now()
	cq, err := planQuery(s.table, s.shards[0].indexSet(), spec)
	if err != nil {
		return nil, err
	}
	rows, err := s.runCompiled(ctx, cq)
	if err != nil {
		return nil, err
	}
	return s.mx.instrumentRows(cq.mode, spec.Trace, rows, start), nil
}
