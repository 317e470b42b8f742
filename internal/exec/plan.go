// Package exec is the analytical query executor over the multi-zone
// store: a small expression/predicate model (comparisons composed with
// AND/OR over any table column), projection, and aggregation
// (COUNT/SUM/MIN/MAX/AVG with optional GROUP BY) evaluated
// block-at-a-time directly over columnar data blocks.
//
// The HTAP split this package serves (paper §1, §7): transactional reads
// go through the Umzi index key-side, while analytical queries scan the
// columnar groomed and post-groomed blocks — and the win of "pushing
// analytics down next to the data" is realized by evaluating predicates
// and partial aggregates inside each shard, shipping only partial
// aggregate states (sum/count pairs, per-group maps) to the coordinator
// instead of rows.
//
// Usage: declare a Plan against table column names, Bind it once to the
// table's columns, feed qualifying rows into per-shard Partials — a
// block's selected rows at once through AddBlock, which aggregates
// column at a time over the selection bitmap, and rows that live in no
// block one by one through Add — then Finalize the partials into a
// Result. Block pruning comes for free:
// CanMatchBlock consults the per-column min/max synopses of a columnar
// block and reports whether any of its rows could satisfy the filter.
package exec

import (
	"fmt"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
)

// AggFunc enumerates the aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota // COUNT(*) or COUNT(col)
	Sum                  // SUM(col), numeric columns
	Min                  // MIN(col), any column
	Max                  // MAX(col), any column
	Avg                  // AVG(col), numeric columns; finalizes to float64
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", int(f))
	}
}

// Agg is one aggregate of a plan. Col may be empty for Count (COUNT(*));
// As optionally names the output column.
type Agg struct {
	Func AggFunc
	Col  string
	As   string
}

func (a Agg) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Col == "" {
		return a.Func.String() + "(*)"
	}
	return fmt.Sprintf("%v(%s)", a.Func, a.Col)
}

// Plan is one analytical query. Exactly two shapes exist:
//
//   - Row query (Aggs empty): the qualifying rows, projected to Columns
//     (all user columns when empty), unsorted, in the order the partials
//     produced them (see Result). A Limit keeps the first Limit of them.
//   - Aggregate query (Aggs nonempty): one output row per GROUP BY group,
//     sorted by group key; groups with no qualifying rows do not appear.
//     Without GroupBy the result is exactly one row, even when nothing
//     qualifies (COUNT 0).
type Plan struct {
	// Filter keeps the rows the predicate accepts; nil keeps everything.
	Filter Expr
	// Columns projects a row query; empty selects all table columns.
	// Must be empty for aggregate queries.
	Columns []string
	// GroupBy names the grouping columns of an aggregate query.
	GroupBy []string
	// Aggs requests aggregation; empty makes this a row query.
	Aggs []Agg
	// Limit keeps the first Limit result rows; 0 means unlimited. A
	// limited row query returns the first Limit rows of the unlimited
	// one's order, and each partial keeps only the first Limit rows it
	// is given. An aggregate query cuts its groups after the sort by
	// group key.
	Limit int
}

// boundAgg is one aggregate with its column resolved.
type boundAgg struct {
	fn   AggFunc
	col  int // -1 for COUNT(*)
	kind keyenc.Kind
	name string
}

// BoundPlan is a Plan with every column name resolved against a table's
// columns. One BoundPlan is shared by all shards of a query: it carries
// no per-execution state.
type BoundPlan struct {
	cols    []columnar.Column
	filter  boundExpr // nil: no predicate
	project []int     // row queries: projected ordinals
	groupBy []int
	aggs    []boundAgg
	limit   int
	outCols []string
}

func colOrdinal(cols []columnar.Column, name string) (int, error) {
	for i, c := range cols {
		if c.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("exec: column %q not in table", name)
}

func numericKind(k keyenc.Kind) bool {
	return k == keyenc.KindInt64 || k == keyenc.KindUint64 || k == keyenc.KindFloat64
}

// Bind resolves the plan against a table's columns and validates it. The
// column list is the table's user columns in row order; RowView ordinals
// and block synopsis ordinals refer to the same list.
func (p Plan) Bind(cols []columnar.Column) (*BoundPlan, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("exec: no columns to bind against")
	}
	if p.Limit < 0 {
		return nil, fmt.Errorf("exec: negative limit %d", p.Limit)
	}
	b := &BoundPlan{cols: cols, limit: p.Limit}
	if p.Filter != nil {
		f, err := p.Filter.bind(cols)
		if err != nil {
			return nil, err
		}
		b.filter = f
	}

	if len(p.Aggs) == 0 {
		if len(p.GroupBy) > 0 {
			return nil, fmt.Errorf("exec: GroupBy requires at least one aggregate")
		}
		names := p.Columns
		if len(names) == 0 {
			for _, c := range cols {
				names = append(names, c.Name)
			}
		}
		for _, n := range names {
			i, err := colOrdinal(cols, n)
			if err != nil {
				return nil, err
			}
			b.project = append(b.project, i)
			b.outCols = append(b.outCols, n)
		}
		return b, nil
	}

	if len(p.Columns) > 0 {
		return nil, fmt.Errorf("exec: Columns projection cannot combine with aggregates; use GroupBy")
	}
	for _, n := range p.GroupBy {
		i, err := colOrdinal(cols, n)
		if err != nil {
			return nil, err
		}
		b.groupBy = append(b.groupBy, i)
		b.outCols = append(b.outCols, n)
	}
	for _, a := range p.Aggs {
		ba := boundAgg{fn: a.Func, col: -1, name: a.outName()}
		if a.Col == "" {
			if a.Func != Count {
				return nil, fmt.Errorf("exec: %v needs a column", a.Func)
			}
		} else {
			i, err := colOrdinal(cols, a.Col)
			if err != nil {
				return nil, err
			}
			ba.col, ba.kind = i, cols[i].Kind
			if (a.Func == Sum || a.Func == Avg) && !numericKind(ba.kind) {
				return nil, fmt.Errorf("exec: %v(%s) needs a numeric column, got %v", a.Func, a.Col, ba.kind)
			}
		}
		b.aggs = append(b.aggs, ba)
		b.outCols = append(b.outCols, ba.name)
	}
	return b, nil
}

// Aggregating reports whether the plan computes aggregates (as opposed to
// returning projected rows).
func (b *BoundPlan) Aggregating() bool { return len(b.aggs) > 0 }

// Projection returns a row query's projected column ordinals in output
// order (empty for aggregate plans). The slice is the bound plan's own;
// callers must not mutate it.
func (b *BoundPlan) Projection() []int { return b.project }

// Columns returns the output column names of the result, in result-row
// order (group-by columns, then aggregates; or the projection).
func (b *BoundPlan) Columns() []string { return b.outCols }

// Matches evaluates the filter against one row; a plan without a filter
// matches everything.
func (b *BoundPlan) Matches(row RowView) bool {
	return b.filter == nil || b.filter.eval(row)
}

// BlockSynopsis is what block pruning reads: a block's row count and
// per-column min/max. A decoded *columnar.Block has it, and so does the
// detached *columnar.Synopsis a reader keeps for a block it has not
// fetched.
type BlockSynopsis interface {
	NumRows() int
	ColumnMin(col int) (keyenc.Value, bool)
	ColumnMax(col int) (keyenc.Value, bool)
}

// CanMatchBlock reports whether any row of the block could satisfy the
// filter, judged by the block's per-column min/max synopses. A false
// return proves the block holds no qualifying row, so the caller may
// skip it entirely — without fetching it, when syn is detached.
func (b *BoundPlan) CanMatchBlock(syn BlockSynopsis) bool {
	if b.filter == nil {
		return syn.NumRows() > 0
	}
	return b.filter.canMatch(func(col int) (keyenc.Value, keyenc.Value, bool) {
		min, ok := syn.ColumnMin(col)
		if !ok {
			return keyenc.Value{}, keyenc.Value{}, false
		}
		max, _ := syn.ColumnMax(col)
		return min, max, true
	})
}
