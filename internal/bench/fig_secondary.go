package bench

import (
	"fmt"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// Ablation A8: executor index selection — a selective equality query on
// a non-key column served by a covering secondary index vs the same
// plan forced onto the zone-scan path. The sweep varies the secondary
// column's cardinality (selectivity = 1/cardinality): at high
// selectivity the scan wins (the index path pays a per-row back-check
// against the primary), and as the predicate narrows the index lookup
// pulls away — the access-path crossover every optimizer textbook
// draws, reproduced on the multi-zone store.

// secondaryOrdersTable: id is the primary/sharding key; region is the
// non-key secondary column ("r0000".."rNNNN", cycling); amount rides in
// the secondary as an included column so COUNT/SUM(amount) plans are
// covered.
func secondaryOrdersTable(name string) (wildfire.TableDef, wildfire.IndexSpec, wildfire.SecondaryIndexSpec) {
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
	primary := wildfire.IndexSpec{Equality: []string{"id"}}
	secondary := wildfire.SecondaryIndexSpec{
		Name: "by_region",
		IndexSpec: wildfire.IndexSpec{
			Equality: []string{"region"},
			Included: []string{"amount"},
		},
	}
	return table, primary, secondary
}

// SecondaryRegionName formats region i the way NewSecondaryOrders
// ingests it.
func SecondaryRegionName(i int) string { return fmt.Sprintf("r%05d", i) }

// NewSecondaryOrders builds a sharded orders engine with a covering
// secondary index on region and ingests rows in lockstep groom rounds:
// row i has amount == i and region i % regions. The root
// BenchmarkSecondaryLookup reuses it so the Go benchmark and the A8
// sweep measure the same workload.
func NewSecondaryOrders(name string, shards, rows, regions int, lat storage.LatencyModel) (*wildfire.ShardedEngine, error) {
	table, primary, secondary := secondaryOrdersTable(name)
	cfg := wildfire.ShardedConfig{
		Table:       table,
		Index:       primary,
		Secondaries: []wildfire.SecondaryIndexSpec{secondary},
		Shards:      shards,
		Store:       storage.NewMemStore(lat),
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
				keyenc.Str(SecondaryRegionName(int(id) % regions)),
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
		// Post-groom halfway through, so the first half of the data ends
		// up in the post-groomed zone and the later rounds stay groomed —
		// queries exercise both zones, as on a long-running table.
		if r == groomRounds/2 {
			if err := eng.PostGroom(); err != nil {
				eng.Close()
				return nil, err
			}
			if err := eng.SyncIndex(); err != nil {
				eng.Close()
				return nil, err
			}
		}
	}
	return eng, nil
}

// SecondaryLookupPlan is the A8 query: COUNT and SUM(amount) of the
// orders in one region — covered by the by_region secondary.
func SecondaryLookupPlan(region string) exec.Plan {
	return exec.Plan{
		Filter: exec.Eq("region", keyenc.Str(region)),
		Aggs:   []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "amount"}},
	}
}

// AblationSecondaryIndex sweeps the secondary column's cardinality and
// reports, per selectivity, the index-selected plan's latency relative
// to the forced zone scan (scan = 1.0 everywhere).
func AblationSecondaryIndex(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Ablation A8",
		Title:    "Secondary-index selection vs zone scan",
		XLabel:   "selectivity (1/cardinality)",
		YLabel:   "normalized latency",
		Baseline: "forced zone scan at the same selectivity (1.0)",
	}
	rows := s.ShardScanRows
	if rows <= 0 {
		rows = 16_000
	}
	cards := s.SecondaryCardinalities
	if len(cards) == 0 {
		cards = []int{4, 16, 64, 256}
	}
	const shards = 4

	indexed := Series{Name: "index-selected (Execute)"}
	scanned := Series{Name: "forced scan"}
	for _, card := range cards {
		if card > rows {
			card = rows
		}
		res.X = append(res.X, fmt.Sprintf("1/%d", card))
		eng, err := NewSecondaryOrders(fmt.Sprintf("a8c%d", card), shards, rows, card, storage.LatencyModel{})
		if err != nil {
			return nil, err
		}
		plan := SecondaryLookupPlan(SecondaryRegionName(card / 2))

		// Both paths must agree before either is worth timing.
		ires, err := RunPlan(eng, plan, false)
		if err != nil {
			eng.Close()
			return nil, err
		}
		sres, err := RunPlan(eng, plan, true)
		if err != nil {
			eng.Close()
			return nil, err
		}
		if len(ires.Rows) != 1 || len(sres.Rows) != 1 ||
			ires.Rows[0][0].Int() != sres.Rows[0][0].Int() ||
			ires.Rows[0][1].Int() != sres.Rows[0][1].Int() {
			eng.Close()
			return nil, fmt.Errorf("bench: index plan %v != scan plan %v", ires.Rows, sres.Rows)
		}

		var benchErr error
		tIdx := timeAvg(s.Reps, func() {
			if _, err := RunPlan(eng, plan, false); err != nil {
				benchErr = err
			}
		})
		tScan := timeAvg(s.Reps, func() {
			if _, err := RunPlan(eng, plan, true); err != nil {
				benchErr = err
			}
		})
		eng.Close()
		if benchErr != nil {
			return nil, benchErr
		}
		indexed.Y = append(indexed.Y, tIdx/tScan)
		scanned.Y = append(scanned.Y, 1.0)
	}
	res.Series = []Series{indexed, scanned}
	res.Notes = append(res.Notes,
		"expect the index-selected plan to pull away as the predicate narrows (covered lookup + primary back-check vs full zone scan)")
	return res, nil
}
