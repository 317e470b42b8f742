// Benchmarks regenerating the paper's evaluation (§8) through the Go
// testing harness: one benchmark per figure plus one per ablation study.
// Each iteration runs the figure's full sweep at the tiny scale so
// `go test -bench=.` finishes quickly; run `cmd/umzi-bench` for the
// paper-shaped tables at small or paper scale.
package umzi_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"umzi"
	"umzi/internal/bench"
	"umzi/internal/core"
	"umzi/internal/exec"
	"umzi/internal/wildfire"
)

func benchFigure(b *testing.B, f func(bench.Scale) (*bench.Result, error)) {
	b.Helper()
	s := bench.TinyScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08IndexBuild regenerates Figure 8 (index build time vs run
// size for the I1/I2/I3 definitions).
func BenchmarkFig08IndexBuild(b *testing.B) { benchFigure(b, bench.Fig08IndexBuild) }

// BenchmarkFig09SingleRun regenerates Figure 9 (single-run batched
// lookups, sequential and random query batches).
func BenchmarkFig09SingleRun(b *testing.B) { benchFigure(b, bench.Fig09SingleRun) }

// BenchmarkFig10MultiRunSeq regenerates Figure 10 (multi-run queries over
// sequentially ingested keys: batch-size, run-count and scan-range
// sweeps).
func BenchmarkFig10MultiRunSeq(b *testing.B) { benchFigure(b, bench.Fig10MultiRunSeq) }

// BenchmarkFig11MultiRunRand regenerates Figure 11 (the Figure 10 sweeps
// with randomly ingested keys).
func BenchmarkFig11MultiRunRand(b *testing.B) { benchFigure(b, bench.Fig11MultiRunRand) }

// BenchmarkFig12ConcurrentReaders regenerates Figure 12 (end-to-end
// lookup latency under a growing number of concurrent readers).
func BenchmarkFig12ConcurrentReaders(b *testing.B) { benchFigure(b, bench.Fig12ConcurrentReaders) }

// BenchmarkFig13UpdateRates regenerates Figure 13 (end-to-end lookup
// latency across IoT update rates p = 0..100%).
func BenchmarkFig13UpdateRates(b *testing.B) { benchFigure(b, bench.Fig13UpdateRates) }

// BenchmarkFig14PurgeLevels regenerates Figure 14 (lookup latency with
// none/half/all runs purged from the SSD cache).
func BenchmarkFig14PurgeLevels(b *testing.B) { benchFigure(b, bench.Fig14PurgeLevels) }

// BenchmarkFig15Evolve regenerates Figure 15 (post-groomer and index
// evolve enabled vs disabled).
func BenchmarkFig15Evolve(b *testing.B) { benchFigure(b, bench.Fig15Evolve) }

// BenchmarkAblationOffsetArray measures the offset-array ablation (A1).
func BenchmarkAblationOffsetArray(b *testing.B) { benchFigure(b, bench.AblationOffsetArray) }

// BenchmarkAblationSynopsis measures synopsis pruning on/off (A3).
func BenchmarkAblationSynopsis(b *testing.B) { benchFigure(b, bench.AblationSynopsis) }

// BenchmarkAblationBatchSort measures batched vs individual lookups (A4).
func BenchmarkAblationBatchSort(b *testing.B) { benchFigure(b, bench.AblationBatchSort) }

// BenchmarkAblationMergePolicy sweeps the merge knobs K and T (A5).
func BenchmarkAblationMergePolicy(b *testing.B) { benchFigure(b, bench.AblationMergePolicy) }

// BenchmarkFigS1ShardScaling regenerates Figure S1 (the scatter-gather
// shard-count sweep, an extension beyond the paper's single-shard
// evaluation).
func BenchmarkFigS1ShardScaling(b *testing.B) { benchFigure(b, bench.FigS1ShardScaling) }

// Scatter-gather benchmarks: the same dataset partitioned across 1, 2, 4
// and 8 shards, queried through the sharded engine. Shared storage
// carries a simulated per-read latency (as the Figure 14 benchmark does)
// and there is no SSD cache, so index reads hit shared storage — the
// regime scatter-gather is built for: per-shard reads overlap instead of
// queueing behind a single index instance. Expect the 4-shard ordered
// scan to beat the 1-shard baseline by roughly the shard count.

const (
	shardBenchRows  = 8_000
	shardBenchBatch = 256
)

// newShardBenchEngine builds an n-shard ledger (single-column primary
// key that is both sharding and sort key, so every scan scatters) with
// shardBenchRows rows, through the same builder the Figure S1 sweep
// uses so both measure the same workload.
func newShardBenchEngine(b *testing.B, name string, shards int) *wildfire.ShardedEngine {
	b.Helper()
	eng, err := bench.NewShardedLedger(name, shards, shardBenchRows,
		umzi.LatencyModel{PerOp: 100 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

// BenchmarkShardedScan measures the full ordered index-only scan (every
// shard scanned concurrently, results sort-merged) at growing shard
// counts over the same data.
func BenchmarkShardedScan(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := newShardBenchEngine(b, fmt.Sprintf("bscan%d", shards), shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The primary forced with every indexed column selected:
				// a covered index-only scan, scattered and merged.
				qr, err := eng.RunQuery(context.Background(),
					wildfire.QuerySpec{Columns: []string{"id", "payload"}, ViaSet: true})
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for qr.Cursor.Next() {
					rows++
				}
				if err := qr.Cursor.Err(); err != nil {
					b.Fatal(err)
				}
				if rows != shardBenchRows {
					b.Fatalf("scan returned %d rows, want %d", rows, shardBenchRows)
				}
			}
			b.ReportMetric(float64(shardBenchRows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkAggPushdown measures the analytical executor on a
// low-selectivity aggregation over a 4-shard orders table (amount <= 1%
// of the key space; COUNT + SUM(amount)), checking the result on every
// iteration. The pushdown path ships per-shard partial aggregates —
// sum/count pairs — to the coordinator and skips non-qualifying blocks
// by their min/max synopses.
func BenchmarkAggPushdown(b *testing.B) {
	const shards = 4
	eng, err := bench.NewShardedOrders("baggpush", shards, shardBenchRows,
		umzi.LatencyModel{PerOp: 100 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	threshold := int64(shardBenchRows/100) - 1 // 1% selectivity
	plan := bench.AggPushdownPlan(threshold)
	wantCount := int64(shardBenchRows / 100)
	wantSum := wantCount * (wantCount - 1) / 2 // amounts are 0..threshold

	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := bench.RunPlan(eng, plan, false)
			if err != nil {
				b.Fatal(err)
			}
			if res.Rows[0][0].Int() != wantCount || res.Rows[0][1].Int() != wantSum {
				b.Fatalf("pushdown aggregate = %v, want (%d, %d)", res.Rows[0], wantCount, wantSum)
			}
		}
	})
}

// BenchmarkSecondaryLookup compares a selective equality query on a
// non-key column served by its covering secondary index (the executor
// picks it automatically) against the same plan forced onto the
// zone-scan path. The secondary column has 256 distinct values over the
// dataset, so the query selects ~0.4% of the rows; the index path runs
// one secondary range scan plus a primary back-check per candidate and
// never touches a data block (COUNT + SUM over an included column),
// while the scan path reconciles every row of every block. Expect the
// index plan to win by well over 5x at this selectivity.
func BenchmarkSecondaryLookup(b *testing.B) {
	const (
		shards  = 4
		rows    = 4 * shardBenchRows
		regions = 256
	)
	eng, err := bench.NewSecondaryOrders("bseclook", shards, rows, regions, umzi.LatencyModel{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	plan := bench.SecondaryLookupPlan(bench.SecondaryRegionName(regions / 2))
	want, err := bench.RunPlan(eng, plan, true)
	if err != nil {
		b.Fatal(err)
	}

	check := func(b *testing.B, res *exec.Result) {
		b.Helper()
		if len(res.Rows) != 1 ||
			res.Rows[0][0].Int() != want.Rows[0][0].Int() ||
			res.Rows[0][1].Int() != want.Rows[0][1].Int() {
			b.Fatalf("result %v, want %v", res.Rows, want.Rows)
		}
	}
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := bench.RunPlan(eng, plan, false)
			if err != nil {
				b.Fatal(err)
			}
			check(b, res)
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := bench.RunPlan(eng, plan, true)
			if err != nil {
				b.Fatal(err)
			}
			check(b, res)
		}
	})
}

// BenchmarkAblationSecondaryIndex runs the index-selection vs zone-scan
// sweep (A8).
func BenchmarkAblationSecondaryIndex(b *testing.B) { benchFigure(b, bench.AblationSecondaryIndex) }

// BenchmarkShardedLookup measures a random point-lookup batch split
// across the shards and executed concurrently.
func BenchmarkShardedLookup(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := newShardBenchEngine(b, fmt.Sprintf("blook%d", shards), shards)
			rng := rand.New(rand.NewSource(11))
			keys := make([]core.LookupKey, shardBenchBatch)
			for i := range keys {
				keys[i] = core.LookupKey{Sort: []umzi.Value{umzi.I64(rng.Int63n(shardBenchRows))}}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, found, err := eng.GetBatch(keys, wildfire.QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				for j, f := range found {
					if !f {
						b.Fatalf("key %d not found", j)
					}
				}
			}
			b.ReportMetric(float64(shardBenchBatch*b.N)/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

// BenchmarkGroupCommit measures the durable write path: ingest
// throughput (rows/s, reported as rows_per_sec) under per-commit
// durability with 1 writer (the naive baseline: every transaction pays
// the simulated device sync alone) and with 8 concurrent writers
// sharing segment writes through group commit, plus the SyncOff
// ceiling. The group-commit acceptance bar — >=5x the naive per-commit
// rate at >=8 writers — is what Figure S3 sweeps in full
// (cmd/umzi-bench -figure s3).
func BenchmarkGroupCommit(b *testing.B) {
	lat := bench.WALDeviceLatency()
	cases := []struct {
		name    string
		opts    umzi.DurabilityOptions
		writers int
	}{
		{"per-commit/writers=1", umzi.DurabilityOptions{SyncPolicy: umzi.SyncPerCommit}, 1},
		{"per-commit/writers=8", umzi.DurabilityOptions{SyncPolicy: umzi.SyncPerCommit, GroupCommitWindow: time.Millisecond}, 8},
		{"off/writers=8", umzi.DurabilityOptions{SyncPolicy: umzi.SyncOff}, 8},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				tput, err := bench.WALIngest(fmt.Sprintf("bgc-%s-%d", c.name, i), c.opts, c.writers, 24, 4, lat)
				if err != nil {
					b.Fatal(err)
				}
				sum += tput
			}
			b.ReportMetric(sum/float64(b.N), "rows_per_sec")
		})
	}
}
