package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"umzi/internal/columnar"
	"umzi/internal/core"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// Figure S1 (extension): scatter-gather shard scaling. The paper
// evaluates one Umzi instance, but positions it inside sharded Wildfire
// where every table shard runs its own index and queries fan out across
// shards (§2.1, §3). This experiment fixes the dataset and sweeps the
// shard count: an ordered full scan (scatter to every shard, sort-merge)
// and a random lookup batch (split across shards) run against shared
// storage with a simulated per-read latency, so the win measured is the
// one sharding actually buys — per-shard reads overlap instead of
// queueing behind one index instance.

// shardLedgerTable is the experiment's table: a single-column primary
// key that is both the sharding key and the index sort key, with no
// equality columns — so every scan is a global ordered scan that cannot
// pin to one shard.
func shardLedgerTable(name string) (wildfire.TableDef, wildfire.IndexSpec) {
	table := wildfire.TableDef{
		Name: name,
		Columns: []columnar.Column{
			{Name: "id", Kind: keyenc.KindInt64},
			{Name: "payload", Kind: keyenc.KindInt64},
		},
		PrimaryKey: []string{"id"},
		ShardKey:   []string{"id"},
	}
	spec := wildfire.IndexSpec{
		// No equality columns: the hash column degenerates and the index
		// is a pure range index over id (§4.1), so HashBits stays 0.
		Sort:     []string{"id"},
		Included: []string{"payload"},
	}
	return table, spec
}

// orderedLedgerScan is the full ordered scan of a sharded ledger: the
// primary index forced, every indexed column selected, so it runs as a
// covered index-only scan that scatters to every shard and merges.
var orderedLedgerScan = wildfire.QuerySpec{Columns: []string{"id", "payload"}, ViaSet: true}

// NewShardedLedger builds a sharded ledger engine over latency-modeled
// shared storage and ingests rows in groomRounds lockstep rounds. The
// root scatter-gather benchmarks reuse it so the Go benchmark and the
// Figure S1 sweep measure the same workload.
func NewShardedLedger(name string, shards, rows int, lat storage.LatencyModel) (*wildfire.ShardedEngine, error) {
	table, spec := shardLedgerTable(name)
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
			if err := eng.UpsertRows(wildfire.Row{keyenc.I64(id), keyenc.I64(id * 3)}); err != nil {
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

// FigS1ShardScaling sweeps the shard count over a fixed dataset and
// reports normalized latency (1.0 = one shard) of the ordered
// scatter-gather scan and of the random lookup batch.
func FigS1ShardScaling(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Figure S1",
		Title:    "Scatter-gather shard scaling (extension)",
		XLabel:   "# shards",
		YLabel:   "normalized latency",
		Baseline: "1 shard on the same data",
	}
	rows := s.ShardScanRows
	if rows <= 0 {
		rows = 16_000
	}
	if len(s.ShardCounts) == 0 {
		s.ShardCounts = []int{1, 2, 4, 8}
	}
	lat := storage.LatencyModel{PerOp: 100 * time.Microsecond}

	scan := Series{Name: "ordered scan"}
	batch := Series{Name: fmt.Sprintf("lookup batch (%d)", s.LookupBatch)}
	for _, n := range s.ShardCounts {
		res.X = append(res.X, fmt.Sprintf("%d", n))
		eng, err := NewShardedLedger(fmt.Sprintf("s1x%d", n), n, rows, lat)
		if err != nil {
			return nil, err
		}
		var scanErr error
		scanSec := timeAvg(s.Reps, func() {
			qr, err := eng.RunQuery(context.Background(), orderedLedgerScan)
			if err != nil {
				scanErr = err
				return
			}
			n := 0
			for qr.Cursor.Next() {
				n++
			}
			if scanErr = qr.Cursor.Err(); scanErr == nil && n != rows {
				scanErr = fmt.Errorf("bench: scan returned %d rows, want %d", n, rows)
			}
		})
		rng := rand.New(rand.NewSource(7))
		batchSec := timeAvg(s.Reps, func() {
			keys := make([]core.LookupKey, s.LookupBatch)
			for i := range keys {
				keys[i] = core.LookupKey{Sort: []keyenc.Value{keyenc.I64(rng.Int63n(int64(rows)))}}
			}
			if _, _, err := eng.GetBatch(keys, wildfire.QueryOptions{}); err != nil {
				scanErr = err
			}
		})
		eng.Close()
		if scanErr != nil {
			return nil, scanErr
		}
		scan.Y = append(scan.Y, scanSec)
		batch.Y = append(batch.Y, batchSec)
		if n == 1 && scanSec > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("1-shard ordered scan: %.1f ms over %s rows",
				scanSec*1000, humanCount(rows)))
		}
	}
	base := scan.Y[0]
	if b := batch.Y[0]; b > 0 {
		ys := make([]float64, len(batch.Y))
		for i, y := range batch.Y {
			ys[i] = y / b
		}
		batch.Y = ys
	}
	res.Series = append(res.Series, normalize([]Series{scan}, base)...)
	res.Series = append(res.Series, batch)
	res.Notes = append(res.Notes,
		"expect latency to fall as shards grow: per-shard shared-storage reads overlap (I/O parallelism), and on multi-core machines the per-shard scans also run on separate CPUs",
		"the dataset is fixed across the sweep; only its partitioning changes")
	return res, nil
}
