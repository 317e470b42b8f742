package bench

import (
	"context"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// ordersTable is the table of the root BenchmarkAggPushdown: id is the
// primary/sharding key, amount is the filter and aggregation column.
// Amount equals id, so a threshold predicate has an exact selectivity
// and ingestion order gives groomed blocks tight amount ranges — the
// regime synopsis skipping is designed for.
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
// amount == i and a region cycling through orderRegions.
func NewShardedOrders(name string, shards, rows int, lat storage.LatencyModel) (*wildfire.ShardedEngine, error) {
	table, spec := ordersTable(name)
	cfg := wildfire.ShardedConfig{
		Table:  table,
		Index:  spec,
		Shards: shards,
		Store:  storage.NewMemStore(lat),
	}
	cfg.IndexTuning.BlockSize = 4096
	// The benchmark measures the read path; ingest setup opts out of
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
			if err := eng.UpsertRows(row); err != nil {
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

// AggPushdownPlan is the orders query: COUNT and SUM(amount) of the orders
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
