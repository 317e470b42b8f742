package wildfire

import (
	"context"
	"fmt"

	"umzi/internal/core"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
)

// Executor index selection: a plan whose (conjunctive) predicate pins
// every equality column of some index runs as an index lookup — fetching
// qualifying rows by RID, or answering covered plans straight from the
// index's key and included columns — instead of scanning the columnar
// zones. This is the classic HTAP access-path decision the multi-index
// set exists for: a selective operational predicate on a non-key column
// touches a handful of rows through its secondary while analytics keep
// scanning, and both observe identical multi-version semantics.

// indexPlanCandidateCap bounds how many index candidates an
// index-selected plan may materialize before the executor abandons the
// index and reverts to the zone scan. There are no table statistics, so
// the selection rule is structural; this cap is the cost guard that
// keeps a syntactic match on a low-cardinality column (half the table
// behind one equality value) from turning the plan into millions of
// per-candidate back-checks. The wasted work on fallback is one bounded
// index scan. The A8 ablation sweeps the crossover this approximates.
const indexPlanCandidateCap = 4096

// errIndexPlanTooBroad reverts an index-selected plan to the zone scan.
var errIndexPlanTooBroad = fmt.Errorf("wildfire: index plan exceeds the candidate cap")

// executePlan evaluates a bound plan on this shard into a partial
// result — the unit the coordinator merges across shards — routing
// through an index when the selection rule finds one (and the caller
// didn't opt out), falling back to the zone scan otherwise — including
// when the index probe turns out too broad to beat the scan. filter is
// the plan's original predicate expression (the bound plan cannot be
// introspected syntactically).
func (e *shard) executePlan(ctx context.Context, bound *exec.BoundPlan, filter exec.Expr, opts QueryOptions) (*exec.Partial, error) {
	if !opts.NoIndexSelection {
		if ti, cons, ok := e.chooseIndex(filter); ok {
			part, err := e.executeViaIndex(ctx, bound, ti, cons, opts)
			if err != errIndexPlanTooBroad {
				return part, err
			}
		}
	}
	return e.executeBound(ctx, bound, opts)
}

// chooseIndex applies the selection rule to the current index set: among
// the indexes whose every equality column is pinned by an Eq constraint
// (or, for pure range indexes, whose leading sort column is bounded on
// both sides), pick the one matching the most key columns. Returns
// ok=false when the predicate is not conjunctive or no index qualifies —
// the plan then runs as a zone scan.
func (e *shard) chooseIndex(filter exec.Expr) (*tableIndex, exec.IndexConstraints, bool) {
	if filter == nil {
		return nil, exec.IndexConstraints{}, false
	}
	cons, ok := exec.ExtractConstraints(filter)
	if !ok {
		return nil, exec.IndexConstraints{}, false
	}
	var best *tableIndex
	bestScore := -1
	for _, ti := range e.indexSet() {
		if score, ok := ti.matchScore(e.table, cons); ok && score > bestScore {
			best, bestScore = ti, score
		}
	}
	if best == nil {
		return nil, exec.IndexConstraints{}, false
	}
	return best, cons, true
}

// kindCompatible reports whether a constraint value's encoding orders
// consistently with a column of the given kind (bytes and strings share
// an encoding; everything else must match exactly).
func kindCompatible(got, want keyenc.Kind) bool {
	if got == want {
		return true
	}
	return (got == keyenc.KindBytes || got == keyenc.KindString) &&
		(want == keyenc.KindBytes || want == keyenc.KindString)
}

// matchScore scores an index against extracted constraints. ok requires
// every equality column pinned with a compatible value kind; pure range
// indexes (no equality columns) additionally require the leading sort
// column bounded on both sides, so an unbounded scan never masquerades
// as an index lookup. The score prefers more pinned equality columns
// and rewards a constrained leading sort column.
func (ti *tableIndex) matchScore(t TableDef, cons exec.IndexConstraints) (int, bool) {
	kindOf := func(col string) keyenc.Kind { return t.Columns[t.colIndex(col)].Kind }
	for _, c := range ti.spec.Equality {
		v, ok := cons.Eq[c]
		if !ok || !kindCompatible(v.Kind(), kindOf(c)) {
			return 0, false
		}
	}
	score := 2 * len(ti.spec.Equality)
	doubleBounded := false
	if ti.userSort > 0 {
		c := ti.spec.Sort[0]
		want := kindOf(c)
		if v, ok := cons.Eq[c]; ok && kindCompatible(v.Kind(), want) {
			score++
			doubleBounded = true
		} else {
			lo, hasLo := cons.Lo[c]
			hi, hasHi := cons.Hi[c]
			hasLo = hasLo && kindCompatible(lo.Kind(), want)
			hasHi = hasHi && kindCompatible(hi.Kind(), want)
			if hasLo || hasHi {
				score++
			}
			doubleBounded = hasLo && hasHi
		}
	}
	if len(ti.spec.Equality) == 0 && !doubleBounded {
		return 0, false
	}
	return score, true
}

// indexScanBounds lowers constraints to the index's scan key: the
// equality values plus inclusive bounds over the longest usable sort
// prefix (a sort column extends the bound past itself only when pinned
// to a single value). The bounds are a superset of the predicate; the
// caller re-applies the full filter. consumed reports the columns whose
// constraints the bounds absorbed completely — the equality columns,
// pinned sort columns, and whichever inclusive bounds of the boundary
// sort column were folded in (a constraint folded only partially, e.g.
// a kind-incompatible value, is not consumed).
func (ti *tableIndex) indexScanBounds(t TableDef, cons exec.IndexConstraints) (eq, sortLo, sortHi []keyenc.Value, consumed map[string]bool) {
	consumed = make(map[string]bool, len(ti.spec.Equality)+ti.userSort)
	eq = make([]keyenc.Value, len(ti.spec.Equality))
	for i, c := range ti.spec.Equality {
		eq[i] = cons.Eq[c]
		consumed[c] = true
	}
	kindOf := func(col string) keyenc.Kind { return t.Columns[t.colIndex(col)].Kind }
	for i := 0; i < ti.userSort; i++ {
		c := ti.spec.Sort[i]
		want := kindOf(c)
		if v, ok := cons.Eq[c]; ok && kindCompatible(v.Kind(), want) {
			sortLo = append(sortLo, v)
			sortHi = append(sortHi, v)
			consumed[c] = true
			continue // pinned: deeper sort columns may constrain further
		}
		lo, hasLo := cons.Lo[c]
		hi, hasHi := cons.Hi[c]
		okLo := hasLo && kindCompatible(lo.Kind(), want)
		okHi := hasHi && kindCompatible(hi.Kind(), want)
		if okLo {
			sortLo = append(sortLo, lo)
		}
		if okHi {
			sortHi = append(sortHi, hi)
		}
		if okLo == hasLo && okHi == hasHi && (okLo || okHi) {
			consumed[c] = true
		}
		break
	}
	return eq, sortLo, sortHi, consumed
}

// executeViaIndex evaluates a bound plan through one index: a range scan
// bounded by the extracted constraints and verified by the one
// back-check (backCheck), the full filter re-applied per row, rows fed
// to the partial either straight from the index (covered plans: every
// referenced column is an index column) or by RID fetch. Multi-version
// semantics match executeBound: exactly the newest visible version of
// each primary key qualifies, live records (when requested at the
// newest snapshot) supersede indexed ones.
func (e *shard) executeViaIndex(ctx context.Context, bound *exec.BoundPlan, ti *tableIndex, cons exec.IndexConstraints, opts QueryOptions) (*exec.Partial, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("wildfire: engine closed")
	}
	epoch := e.gate.enter()
	defer e.gate.exit(epoch)
	// Live overlay: committed-but-ungroomed versions are newer than every
	// indexed version of their key, so they suppress index results for
	// the same primary key and contribute their own qualifying rows.
	live, _, ts := e.liveOverlay(opts)

	eq, sortLo, sortHi, _ := ti.indexScanBounds(e.table, cons)
	covered := ti.coversOrdinals(bound.ReferencedOrdinals())
	// Probe with a candidate cap before paying for verification: a
	// too-broad match reverts to the zone scan via errIndexPlanTooBroad.
	entries, err := ti.idx.RangeScan(core.ScanOptions{
		Equality: eq,
		SortLo:   sortLo,
		SortHi:   sortHi,
		TS:       ts,
		Limit:    indexPlanCandidateCap + 1,
	})
	if err != nil {
		return nil, err
	}
	if len(entries) > indexPlanCandidateCap {
		return nil, errIndexPlanTooBroad
	}
	// Decoded values are needed to serve covered plans and to extract
	// primary keys for live suppression; a non-covered primary-index
	// plan with no live overlay fetches by RID and never reads them
	// (secondaries always decode for the back-check).
	ves, err := e.backCheck(ctx, ti, entries, ts, covered || live != nil, opts.Trace, nil)
	if err != nil {
		return nil, err
	}

	part := bound.NewPartial()
	for _, ve := range ves {
		if len(live) > 0 {
			if _, shadowed := live[ti.pkEncodingFromFlat(ve.flat)]; shadowed {
				continue
			}
		}
		view, err := e.entryView(ctx, ti, ve, covered)
		if err != nil {
			return nil, err
		}
		if bound.Matches(view) {
			part.Add(view)
		}
	}
	addLiveRows(part, bound, live)
	return part, nil
}

// entryView is the row of a verified entry: its decoded values when the
// index covers the reader (ve must be decoded), else the record its RID
// names.
func (e *shard) entryView(ctx context.Context, ti *tableIndex, ve verifiedEntry, covered bool) (exec.RowView, error) {
	if covered {
		flat, pos := ve.flat, ti.valPos
		return func(c int) keyenc.Value { return flat[pos[c]] }, nil
	}
	rec, err := e.fetch(ctx, ve.entry.RID)
	if err != nil {
		return nil, err
	}
	row := rec.Row
	return func(c int) keyenc.Value { return row[c] }, nil
}

// ---- Index creation on the sharded engine -------------------------

// CreateIndex builds a new secondary on every shard (backfill runs per
// shard, online). The shards' index sets are the table's only index set,
// so it reads them before it touches any shard: a name that some shard
// holds with a different declaration is refused.
func (s *ShardedEngine) CreateIndex(spec SecondaryIndexSpec) error {
	if s.closed.Load() {
		return fmt.Errorf("wildfire: engine closed")
	}
	if err := spec.Validate(s.table); err != nil {
		return err
	}
	// One CreateIndex at a time: without this, two concurrent calls with
	// the same name but different specs could each win on different
	// shards and permanently diverge the per-shard catalogs.
	s.createMu.Lock()
	defer s.createMu.Unlock()
	for _, e := range s.shards {
		if ti, err := e.lookupIndex(spec.Name); err == nil && !specEqual(ti.declared, spec.IndexSpec) {
			return fmt.Errorf("wildfire: table %s already has an index %q with a different spec", s.table.Name, spec.Name)
		}
	}
	// Per-shard createIndex is idempotent on an identical spec, so a
	// partial failure (some shards built, some not) is retryable: rerun
	// and only the stragglers backfill. Shards that already hold the
	// index still rewrite their catalog, in case the failure came
	// between publishing the index and persisting it.
	return s.pool.each(context.Background(), len(s.shards), func(i int) error {
		return s.shards[i].createIndex(spec)
	})
}
