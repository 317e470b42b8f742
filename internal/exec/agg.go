package exec

import (
	"math"
	"math/bits"
	"sort"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
)

// Partial aggregation. Each shard accumulates qualifying rows into a
// Partial — per-group aggregate accumulators keyed by the memcmp-encoded
// group key, or projected rows for row queries — and the coordinator
// merges Partials instead of rows. AVG ships as a (sum, count) pair and
// divides only at Finalize, so merging partials is exact.

// aggAcc is one aggregate accumulator. Sums stay in the input column's
// arithmetic (int64 / uint64 / float64) until Finalize.
type aggAcc struct {
	count int64
	isum  int64
	usum  uint64
	fsum  float64
	min   keyenc.Value
	max   keyenc.Value
	hasMM bool // min/max hold values (Min/Max aggregates only)
}

func (a *aggAcc) add(fn AggFunc, kind keyenc.Kind, v keyenc.Value) {
	a.count++
	switch fn {
	case Sum, Avg:
		switch kind {
		case keyenc.KindInt64:
			a.isum += v.Int()
			a.fsum += float64(v.Int())
		case keyenc.KindUint64:
			a.usum += v.Uint()
			a.fsum += float64(v.Uint())
		default:
			a.fsum += v.Float()
		}
	case Min, Max:
		if !a.hasMM || keyenc.Compare(v, a.min) < 0 {
			a.min = v
		}
		if !a.hasMM || keyenc.Compare(v, a.max) > 0 {
			a.max = v
		}
		a.hasMM = true
	}
}

func (a *aggAcc) merge(o *aggAcc) {
	a.count += o.count
	a.isum += o.isum
	a.usum += o.usum
	a.fsum += o.fsum
	if o.hasMM {
		if !a.hasMM || keyenc.Compare(o.min, a.min) < 0 {
			a.min = o.min
		}
		if !a.hasMM || keyenc.Compare(o.max, a.max) > 0 {
			a.max = o.max
		}
		a.hasMM = true
	}
}

// finalize lowers the accumulator to its output value.
func (a *aggAcc) finalize(fn AggFunc, kind keyenc.Kind) keyenc.Value {
	switch fn {
	case Count:
		return keyenc.I64(a.count)
	case Sum:
		switch kind {
		case keyenc.KindInt64:
			return keyenc.I64(a.isum)
		case keyenc.KindUint64:
			return keyenc.U64(a.usum)
		default:
			return keyenc.F64(a.fsum)
		}
	case Avg:
		if a.count == 0 {
			// Empty input: the zero (invalid-kind) Value stands in for
			// SQL NULL, same as Min/Max below — not NaN.
			return keyenc.Value{}
		}
		return keyenc.F64(a.fsum / float64(a.count))
	case Min:
		return a.min
	default:
		return a.max
	}
}

// groupState is one group's key values and accumulators.
type groupState struct {
	keyVals []keyenc.Value
	accs    []aggAcc
}

// Partial is one shard's partially evaluated query: per-group aggregate
// states for aggregate queries, projected rows for row queries. Partials
// of the same BoundPlan merge exactly — this is what the sharded layer
// ships to the coordinator instead of rows.
type Partial struct {
	plan   *BoundPlan
	groups map[string]*groupState
	rows   [][]keyenc.Value
	// arena is the unused tail of the chunk the next projected rows are
	// carved from (newRow).
	arena []keyenc.Value

	keyBuf []byte // group-key scratch

	// AddBlock scratch, reused from block to block: each selected row's
	// group, a dict GROUP BY column's codes and dictionary with each
	// code's group, and one numeric column's raw words.
	rowGroups  []*groupState
	codes      []uint64
	dict       []keyenc.Value
	codeGroups []*groupState
	nums       []uint64
}

// NewPartial returns an empty accumulator for the plan.
func (b *BoundPlan) NewPartial() *Partial {
	p := &Partial{plan: b}
	if b.Aggregating() {
		p.groups = make(map[string]*groupState)
	}
	return p
}

// NumRows returns the number of accumulated row-query rows.
func (p *Partial) NumRows() int { return len(p.rows) }

// NumGroups returns the number of accumulated groups.
func (p *Partial) NumGroups() int { return len(p.groups) }

// Add accumulates one qualifying row. The caller is responsible for
// filtering (Matches) and for multi-version reconciliation; Add reads
// only the columns the plan touches and does not retain row. A limited
// row plan's partial keeps the first Limit rows it is given and drops
// the rest: no row after them can be among the result's first Limit.
func (p *Partial) Add(row RowView) {
	b := p.plan
	if !b.Aggregating() {
		if b.limit > 0 && len(p.rows) >= b.limit {
			return
		}
		out := p.newRow()
		for i, c := range b.project {
			out[i] = row(c)
		}
		p.rows = append(p.rows, out)
		return
	}
	g := p.group(row)
	for i := range b.aggs {
		a := &b.aggs[i]
		var v keyenc.Value
		if a.col >= 0 {
			v = row(a.col)
		}
		g.accs[i].add(a.fn, a.kind, v)
	}
}

// Arena chunk sizes, in rows: a chunk holds as many rows as the partial
// already has, within these bounds, so a small result stays small and a
// large one pays one allocation per maxArenaRows rows.
const (
	minArenaRows = 64
	maxArenaRows = 1024
)

// newRow carves one projected row from the partial's arena. The row is
// capped at its length, so a caller's append copies instead of writing
// into the next row; a spent chunk is never reused, so rows already
// handed out stay valid.
func (p *Partial) newRow() []keyenc.Value {
	n := len(p.plan.project)
	if len(p.arena) < n {
		p.arena = make([]keyenc.Value, n*min(max(len(p.rows), minArenaRows), maxArenaRows))
	}
	row := p.arena[:n:n]
	p.arena = p.arena[n:]
	return row
}

// group returns the state of the group that row's GROUP BY values
// name, creating it on first sight.
func (p *Partial) group(row RowView) *groupState {
	b := p.plan
	p.keyBuf = p.keyBuf[:0]
	for _, c := range b.groupBy {
		p.keyBuf = keyenc.Append(p.keyBuf, row(c))
	}
	g, ok := p.groups[string(p.keyBuf)]
	if !ok {
		g = &groupState{accs: make([]aggAcc, len(b.aggs))}
		if len(b.groupBy) > 0 {
			g.keyVals = make([]keyenc.Value, len(b.groupBy))
			for i, c := range b.groupBy {
				g.keyVals[i] = row(c)
			}
		}
		p.groups[string(p.keyBuf)] = g
	}
	return g
}

// AddBlock accumulates the rows of blk that sel selects, exactly as Add
// would row by row; the caller has filtered and reconciled them. sel is
// not retained; group keys and MIN/MAX values alias the immutable
// block, as Add's alias what its view returns.
//
// An aggregating plan runs column at a time. Each selected row first
// resolves to its group: the one group without GROUP BY, its
// dictionary code's group — looked up once per code per block — when
// the only GROUP BY column is dict-encoded, otherwise its own key
// encode and map probe. Each aggregate then runs down its column over
// the selection: COUNT on the bits, SUM and AVG on the raw words,
// MIN and MAX on values. Every accumulator takes its inputs in row
// order, so sums are bit-identical to Add's. A row plan projects row
// by row through Add.
func (p *Partial) AddBlock(blk *columnar.Block, sel *Bitmap) {
	if sel.None() {
		return
	}
	b := p.plan
	var r int // one view per block, re-pointed per row
	view := RowView(func(c int) keyenc.Value { return blk.Value(r, c) })
	if !b.Aggregating() {
		for w, word := range sel.words {
			for ; word != 0; word &= word - 1 {
				r = w<<6 | bits.TrailingZeros64(word)
				p.Add(view)
			}
		}
		return
	}

	n := blk.NumRows()
	if cap(p.rowGroups) < n {
		p.rowGroups = make([]*groupState, n)
	}
	groups := p.rowGroups[:n] // valid at selected rows only
	var dictCol bool
	if len(b.groupBy) == 1 {
		p.codes, p.dict, dictCol = blk.AppendDict(b.groupBy[0], p.codes[:0], p.dict[:0])
	}
	switch {
	case len(b.groupBy) == 0:
		g := p.group(nil)
		for w, word := range sel.words {
			for ; word != 0; word &= word - 1 {
				groups[w<<6|bits.TrailingZeros64(word)] = g
			}
		}
	case dictCol:
		if cap(p.codeGroups) < len(p.dict) {
			p.codeGroups = make([]*groupState, len(p.dict))
		}
		codeGroups := p.codeGroups[:len(p.dict)]
		clear(codeGroups)
		var code uint64
		dictView := RowView(func(int) keyenc.Value { return p.dict[code] })
		for w, word := range sel.words {
			for ; word != 0; word &= word - 1 {
				row := w<<6 | bits.TrailingZeros64(word)
				code = p.codes[row]
				if codeGroups[code] == nil {
					codeGroups[code] = p.group(dictView)
				}
				groups[row] = codeGroups[code]
			}
		}
	default:
		for w, word := range sel.words {
			for ; word != 0; word &= word - 1 {
				r = w<<6 | bits.TrailingZeros64(word)
				groups[r] = p.group(view)
			}
		}
	}

	for i := range b.aggs {
		a := &b.aggs[i]
		switch {
		case a.fn == Min || a.fn == Max:
			for w, word := range sel.words {
				for ; word != 0; word &= word - 1 {
					row := w<<6 | bits.TrailingZeros64(word)
					groups[row].accs[i].add(a.fn, a.kind, blk.Value(row, a.col))
				}
			}
		case a.fn == Count:
			for w, word := range sel.words {
				for ; word != 0; word &= word - 1 {
					groups[w<<6|bits.TrailingZeros64(word)].accs[i].count++
				}
			}
		default: // Sum, Avg: numeric columns, summed from the raw words
			p.nums = blk.AppendNums(a.col, p.nums[:0])
			nums := p.nums
			for w, word := range sel.words {
				for ; word != 0; word &= word - 1 {
					row := w<<6 | bits.TrailingZeros64(word)
					acc := &groups[row].accs[i]
					acc.count++
					switch raw := nums[row]; a.kind {
					case keyenc.KindInt64:
						acc.isum += int64(raw)
						acc.fsum += float64(int64(raw))
					case keyenc.KindUint64:
						acc.usum += raw
						acc.fsum += float64(raw)
					default:
						acc.fsum += math.Float64frombits(raw)
					}
				}
			}
		}
	}
}

// Merge folds another shard's partial of the same aggregating plan
// into p. Row plans do not merge: FinalizeIter walks their partials in
// turn.
func (p *Partial) Merge(o *Partial) {
	if o == nil {
		return
	}
	for k, og := range o.groups {
		g, ok := p.groups[k]
		if !ok {
			p.groups[k] = og
			continue
		}
		for i := range g.accs {
			g.accs[i].merge(&og.accs[i])
		}
	}
}

// Result is a finalized query result: output column names and rows.
// Aggregate results carry one row per group (group-by values first, then
// one value per aggregate) sorted by group key, whatever the shard count
// and block layout. Row-query results are unsorted: each partial's rows
// in the order they were added, the partials in the order Finalize was
// given them — repeatable for the same partials, but it may differ
// across shard counts and block layouts. A Limit keeps the first Limit
// rows of that order, so a limited result is a prefix of the unlimited
// one.
type Result struct {
	Columns []string
	Rows    [][]keyenc.Value
}

// RowIter streams a finalized result one row at a time — the emission
// half of Finalize, detached so a coordinator can hand rows to a cursor
// without materializing the full result. The merge of the partials has
// already happened by construction; what RowIter defers is the lowering
// of each group's accumulators (aggregate queries) and the emission
// itself, so an abandoned iterator skips that tail of the work.
type RowIter struct {
	cols []string
	next func() ([]keyenc.Value, bool)
}

// Columns returns the output column names, in result-row order.
func (it *RowIter) Columns() []string { return it.cols }

// Next returns the next result row, or ok=false when the result is
// exhausted.
func (it *RowIter) Next() ([]keyenc.Value, bool) { return it.next() }

// FinalizeIter merges the partials (the coordinator step: partial
// aggregates in, no rows shipped) and returns a RowIter streaming the
// finalized rows in the result's order (see Result). It consumes the
// partials; nil entries — shards with nothing — are skipped. A row
// plan merges and sorts nothing: the iterator walks the partials' rows
// where they lie.
func (b *BoundPlan) FinalizeIter(parts ...*Partial) *RowIter {
	if !b.Aggregating() {
		return b.concatIter(parts)
	}
	var merged *Partial
	for _, p := range parts {
		if p == nil {
			continue
		}
		if merged == nil {
			merged = p
			continue
		}
		merged.Merge(p)
	}
	if merged == nil {
		merged = b.NewPartial()
	}
	if len(b.groupBy) == 0 && len(merged.groups) == 0 {
		// A global aggregate (no GROUP BY) always has exactly one result
		// row, even over zero qualifying rows: COUNT(*) is 0, SUM the
		// typed zero, AVG/MIN/MAX the zero Value (the NULL stand-in) —
		// not an empty result set.
		merged.groups[""] = &groupState{accs: make([]aggAcc, len(b.aggs))}
	}
	keys := make([]string, 0, len(merged.groups))
	for k := range merged.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if b.limit > 0 && len(keys) > b.limit {
		keys = keys[:b.limit]
	}
	return &RowIter{cols: b.outCols, next: func() ([]keyenc.Value, bool) {
		if len(keys) == 0 {
			return nil, false
		}
		g := merged.groups[keys[0]]
		keys = keys[1:]
		out := make([]keyenc.Value, 0, len(b.groupBy)+len(b.aggs))
		out = append(out, g.keyVals...)
		for j := range b.aggs {
			out = append(out, g.accs[j].finalize(b.aggs[j].fn, b.aggs[j].kind))
		}
		return out, true
	}}
}

// concatIter hands out each partial's rows in the order they were
// added, the partials in order, and stops after Limit rows.
func (b *BoundPlan) concatIter(parts []*Partial) *RowIter {
	var rows [][]keyenc.Value
	left := b.limit
	if left == 0 {
		left = math.MaxInt
	}
	return &RowIter{cols: b.outCols, next: func() ([]keyenc.Value, bool) {
		if left == 0 {
			return nil, false
		}
		for len(rows) == 0 {
			if len(parts) == 0 {
				return nil, false
			}
			if parts[0] != nil {
				rows = parts[0].rows
			}
			parts = parts[1:]
		}
		left--
		row := rows[0]
		rows = rows[1:]
		return row, true
	}}
}

// Finalize is FinalizeIter drained into a materialized Result.
func (b *BoundPlan) Finalize(parts ...*Partial) *Result {
	it := b.FinalizeIter(parts...)
	res := &Result{Columns: it.Columns()}
	for {
		row, ok := it.Next()
		if !ok {
			return res
		}
		res.Rows = append(res.Rows, row)
	}
}
