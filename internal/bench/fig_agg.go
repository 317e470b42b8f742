package bench

import (
	"context"
	"fmt"
	"time"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// Ablation A7: aggregation pushdown vs client-side scan+aggregate. The
// analytical executor evaluates filter and aggregates block-at-a-time
// inside each shard and ships partial aggregates to the coordinator;
// the client-side baseline runs the pre-executor plan — scatter-gather
// scan, materialize every record at the coordinator, then filter and
// aggregate there. The sweep varies the filter's selectivity: at low
// selectivity the pushdown additionally skips whole blocks via the
// columnar min/max synopses, so the gap widens.

// ordersTable is the A7 table: id is the primary/sharding key, amount
// is the filter and aggregation column. Amount equals id, so a
// threshold predicate has an exact selectivity and ingestion order
// gives groomed blocks tight amount ranges — the regime synopsis
// skipping is designed for.
func ordersTable(name string) (wildfire.TableDef, wildfire.IndexSpec) {
	table := wildfire.TableDef{
		Name: name,
		Columns: []columnar.Column{
			{Name: "id", Kind: keyenc.KindInt64},
			{Name: "region", Kind: keyenc.KindString},
			{Name: "amount", Kind: keyenc.KindInt64},
		},
		PrimaryKey: []string{"id"},
		ShardKey:   []string{"id"},
	}
	spec := wildfire.IndexSpec{Sort: []string{"id"}}
	return table, spec
}

var orderRegions = []string{"amer", "emea", "apac", "latam"}

// NewShardedOrders builds a sharded orders engine over latency-modeled
// shared storage and ingests rows in lockstep groom rounds. Row i has
// amount == i and a region cycling through orderRegions. The root
// BenchmarkAggPushdown reuses it so the Go benchmark and the A7 sweep
// measure the same workload.
func NewShardedOrders(name string, shards, rows int, lat storage.LatencyModel) (*wildfire.ShardedEngine, error) {
	table, spec := ordersTable(name)
	cfg := wildfire.ShardedConfig{
		Table:  table,
		Index:  spec,
		Shards: shards,
		Store:  storage.NewMemStore(lat),
	}
	cfg.IndexTuning.BlockSize = 4096
	// These drivers measure the read paths; ingest setup opts out of
	// per-commit log syncs (Figure S3 measures the write path).
	cfg.Durability.SyncPolicy = wildfire.SyncOff
	eng, err := wildfire.NewShardedEngine(cfg)
	if err != nil {
		return nil, err
	}
	const groomRounds = 8
	per := rows / groomRounds
	id := int64(0)
	for r := 0; r < groomRounds; r++ {
		count := per
		if r == groomRounds-1 {
			count = rows - int(id)
		}
		for i := 0; i < count; i++ {
			row := wildfire.Row{
				keyenc.I64(id),
				keyenc.Str(orderRegions[id%int64(len(orderRegions))]),
				keyenc.I64(id),
			}
			if err := eng.UpsertRows(0, row); err != nil {
				eng.Close()
				return nil, err
			}
			id++
		}
		if err := eng.Groom(); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// AggPushdownPlan is the A7 query: COUNT and SUM(amount) of the orders
// with amount <= threshold.
func AggPushdownPlan(threshold int64) exec.Plan {
	return exec.Plan{
		Filter: exec.Le("amount", keyenc.I64(threshold)),
		Aggs:   []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "amount"}},
	}
}

// RunPlan runs an analytical plan through the table's read entry point
// (RunQuery) and materializes the result. noIndex forces the zone scan
// even when the filter matches an index.
func RunPlan(eng *wildfire.ShardedEngine, plan exec.Plan, noIndex bool) (*exec.Result, error) {
	qr, err := eng.RunQuery(context.Background(), wildfire.QuerySpec{
		Filter:           plan.Filter,
		Columns:          plan.Columns,
		GroupBy:          plan.GroupBy,
		Aggs:             plan.Aggs,
		Limit:            plan.Limit,
		NoIndexSelection: noIndex,
	})
	if err != nil {
		return nil, err
	}
	defer qr.Close()
	res := &exec.Result{Columns: qr.Columns}
	for qr.Cursor.Next() {
		res.Rows = append(res.Rows, qr.Cursor.Value())
	}
	return res, qr.Cursor.Err()
}

// ClientSideAggregate is the baseline: scatter-gather the matching-free
// scan, stream every record to the coordinator, then filter and
// aggregate there.
func ClientSideAggregate(eng *wildfire.ShardedEngine, threshold int64) (count, sum int64, err error) {
	cur, err := eng.ScanStreamOn(context.Background(), "", nil, nil, nil, wildfire.QueryOptions{})
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	for cur.Next() {
		if amount := cur.Value().Row[2].Int(); amount <= threshold {
			count++
			sum += amount
		}
	}
	return count, sum, cur.Err()
}

// AblationAggPushdown sweeps the filter selectivity and reports, per
// selectivity, the pushdown's latency relative to the client-side
// baseline (client-side = 1.0 everywhere).
func AblationAggPushdown(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Ablation A7",
		Title:    "Aggregation pushdown vs client-side scan+aggregate",
		XLabel:   "selectivity",
		YLabel:   "normalized latency",
		Baseline: "client-side scan+aggregate at the same selectivity (1.0)",
	}
	rows := s.ShardScanRows
	if rows <= 0 {
		rows = 16_000
	}
	sels := s.AggSelectivities
	if len(sels) == 0 {
		sels = []float64{0.001, 0.01, 0.1, 1}
	}
	const shards = 4
	lat := storage.LatencyModel{PerOp: 100 * time.Microsecond}
	eng, err := NewShardedOrders("a7", shards, rows, lat)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	push := Series{Name: "pushdown (RunQuery)"}
	client := Series{Name: "client-side"}
	for _, sel := range sels {
		res.X = append(res.X, fmt.Sprintf("%g", sel))
		threshold := int64(sel*float64(rows)) - 1
		plan := AggPushdownPlan(threshold)

		// Both paths must agree before either is worth timing.
		pres, err := RunPlan(eng, plan, false)
		if err != nil {
			return nil, err
		}
		ccount, csum, err := ClientSideAggregate(eng, threshold)
		if err != nil {
			return nil, err
		}
		if ccount == 0 {
			if len(pres.Rows) != 0 {
				return nil, fmt.Errorf("bench: pushdown returned %v for an empty selection", pres.Rows)
			}
		} else if pres.Rows[0][0].Int() != ccount || pres.Rows[0][1].Int() != csum {
			return nil, fmt.Errorf("bench: pushdown (%v, %v) != client-side (%d, %d)",
				pres.Rows[0][0], pres.Rows[0][1], ccount, csum)
		}

		var benchErr error
		tPush := timeAvg(s.Reps, func() {
			if _, err := RunPlan(eng, plan, false); err != nil {
				benchErr = err
			}
		})
		tClient := timeAvg(s.Reps, func() {
			if _, _, err := ClientSideAggregate(eng, threshold); err != nil {
				benchErr = err
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		push.Y = append(push.Y, tPush/tClient)
		client.Y = append(client.Y, 1)
		if sel == sels[0] {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"at selectivity %g over %s rows × %d shards: pushdown %.2f ms, client-side %.2f ms (%.1fx)",
				sel, humanCount(rows), shards, tPush*1000, tClient*1000, tClient/tPush))
		}
	}
	res.Series = []Series{push, client}
	res.Notes = append(res.Notes,
		"pushdown ships per-shard partial aggregates (sum/count pairs) instead of rows; the client-side path materializes every record at the coordinator",
		"at low selectivity the pushdown also skips whole blocks via columnar min/max synopses, so its advantage grows as selectivity falls")
	return res, nil
}
