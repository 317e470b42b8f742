package bench

import (
	"fmt"
	"time"

	"umzi/internal/exec"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// Figure S6 (extension): intra-shard parallel scans and the bounded
// decoded-block cache. The A7 orders workload is built once into a
// single shard, then the same aggregation scan runs at increasing
// ScanParallelism over the same encoded blocks. Two regimes:
//
//   - cold cache: the engine is reopened per measurement, so every
//     block is fetched (latency-modeled storage) and decoded on the
//     query path — the regime where the worker pool overlaps I/O,
//     decode and vectorized evaluation;
//   - warm cache: repeated queries against a resident cache, isolating
//     the parallel evaluate-and-merge of the scan itself.
//
// A final pass runs the 4-worker scan against a deliberately starved
// block-cache budget and reports occupancy versus budget and eviction
// churn, checking the byte ceiling holds under parallel pressure.

// FigS6ReadPath sweeps scan workers and reports latency normalized to
// the single-worker configuration.
func FigS6ReadPath(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Figure S6",
		Title:    "Intra-shard parallel scan: workers vs read latency",
		XLabel:   "scan workers",
		YLabel:   "normalized latency",
		Baseline: "ScanParallelism=1 over the same encoded blocks (1.0)",
	}
	rows := s.ShardScanRows
	if rows <= 0 {
		rows = 16_000
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 3
	}
	store := storage.NewMemStore(storage.LatencyModel{PerOp: 100 * time.Microsecond})
	seed, err := newShardedOrdersOn(store, "s6", 1, rows)
	if err != nil {
		return nil, err
	}
	plan := AggPushdownPlan(int64(rows)) // selectivity 1: every block scans
	want, err := RunPlan(seed, plan, false)
	if err != nil {
		seed.Close()
		return nil, err
	}
	seed.Close()
	if len(want.Rows) != 1 {
		return nil, fmt.Errorf("bench: s6 reference returned %d rows", len(want.Rows))
	}
	wantCount, wantSum := want.Rows[0][0].Int(), want.Rows[0][1].Int()

	// open reopens the groomed dataset with the read-path knobs under
	// test; nothing is re-ingested, so every configuration scans the
	// exact same blocks.
	open := func(workers int, cacheBytes int64) (*wildfire.ShardedEngine, error) {
		table, spec := ordersTable("s6")
		cfg := wildfire.ShardedConfig{
			Table:           table,
			Index:           spec,
			Shards:          1,
			Store:           store,
			ScanParallelism: workers,
			BlockCacheBytes: cacheBytes,
		}
		cfg.IndexTuning.BlockSize = 4096
		cfg.Durability.SyncPolicy = wildfire.SyncOff
		return wildfire.NewShardedEngine(cfg)
	}
	check := func(got *exec.Result) error {
		if len(got.Rows) != 1 || got.Rows[0][0].Int() != wantCount || got.Rows[0][1].Int() != wantSum {
			return fmt.Errorf("bench: s6 parallel scan diverged from reference")
		}
		return nil
	}

	cold := Series{Name: "cold cache (fetch+decode+scan)"}
	warm := Series{Name: "warm cache (scan only)"}
	var cold1, warm1 float64
	for _, w := range []int{1, 2, 4, 8} {
		res.X = append(res.X, fmt.Sprintf("%d", w))
		var tCold float64
		var tWarm float64
		for r := 0; r < reps; r++ {
			eng, err := open(w, 0)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			got, err := RunPlan(eng, plan, false)
			if err != nil {
				eng.Close()
				return nil, err
			}
			tCold += time.Since(t0).Seconds()
			if err := check(got); err != nil {
				eng.Close()
				return nil, err
			}
			if r == reps-1 {
				// Last reopen doubles as the warm-cache fixture.
				var benchErr error
				tWarm = timeAvg(reps, func() {
					if _, err := RunPlan(eng, plan, false); err != nil {
						benchErr = err
					}
				})
				if benchErr != nil {
					eng.Close()
					return nil, benchErr
				}
			}
			eng.Close()
		}
		tCold /= float64(reps)
		if w == 1 {
			cold1, warm1 = tCold, tWarm
		}
		cold.Y = append(cold.Y, tCold/cold1)
		warm.Y = append(warm.Y, tWarm/warm1)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d workers over %s rows: cold %.2f ms (%.1fx), warm %.2f ms (%.1fx)",
			w, humanCount(rows), tCold*1000, cold1/tCold, tWarm*1000, warm1/tWarm))
	}
	res.Series = []Series{cold, warm}

	// Starved-cache pass: the byte budget must hold while 4 workers
	// fetch and evict concurrently, and the scan must still be correct.
	// The budget is half the decoded working set, so every full sweep is
	// forced to evict no matter the scale.
	probe, err := open(4, 0)
	if err != nil {
		return nil, err
	}
	if _, err := RunPlan(probe, plan, false); err != nil {
		probe.Close()
		return nil, err
	}
	workingSet := probe.BlockCache().Stats().Bytes
	probe.Close()
	starvedBudget := workingSet / 2
	if starvedBudget < 8<<10 {
		starvedBudget = 8 << 10
	}
	eng, err := open(4, starvedBudget)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	var maxBytes int64
	for r := 0; r < reps*2; r++ {
		got, err := RunPlan(eng, plan, false)
		if err != nil {
			return nil, err
		}
		if err := check(got); err != nil {
			return nil, err
		}
		if st := eng.BlockCache().Stats(); st.Bytes > maxBytes {
			maxBytes = st.Bytes
		}
	}
	st := eng.BlockCache().Stats()
	if maxBytes > starvedBudget {
		return nil, fmt.Errorf("bench: block-cache occupancy %d exceeded the %d-byte budget", maxBytes, starvedBudget)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"starved-cache pass (budget %d B, 4 workers): max occupancy %d B (ceiling held), %d evictions, %d hits / %d misses, %d dedup'd fetches",
		starvedBudget, maxBytes, st.Evictions, st.Hits, st.Misses, st.Dedups))
	return res, nil
}
