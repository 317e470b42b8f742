package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// Figure S5 (extension): encoded columnar blocks with vectorized
// execution against the scalar row-at-a-time executor. The sweep reuses
// the A7 orders workload — amount == id, so a threshold predicate has an
// exact selectivity — and runs the same aggregation plan through both
// executor paths. The scalar baseline is the pre-encoding executor
// preserved behind QueryOptions.ScalarExec: per-row Value calls, per-row
// predicate evaluation, min/max synopsis skipping only. The default path
// evaluates predicates vectorized over the encoded columns (selection
// bitmaps, comparisons on dictionary codes and bit-packed words) and
// skips blocks by bloom filter on equality predicates. The driver also
// reports the on-store footprint of the encoded blocks against the
// plain layout of the same data.

// ExecOnShards runs a plan on every shard's ExecutePlan primitive, one
// shard after another, and finalizes the merged partials — the
// coordinator's executor path with QueryOptions exposed, so both
// executors (the scalar one is reachable only through
// QueryOptions.ScalarExec) run under identical glue.
func ExecOnShards(eng *wildfire.ShardedEngine, plan exec.Plan, opts wildfire.QueryOptions) (*exec.Result, error) {
	bound, err := plan.Bind(eng.Table().Columns)
	if err != nil {
		return nil, err
	}
	opts.TS = eng.SnapshotTS()
	parts := make([]*exec.Partial, eng.NumShards())
	for i := range parts {
		if parts[i], err = eng.Shard(i).ExecutePlan(context.Background(), bound, plan.Filter, opts); err != nil {
			return nil, err
		}
	}
	return bound.Finalize(parts...), nil
}

// FigS5EncodedScan sweeps filter selectivity and reports vectorized
// latency normalized to the scalar executor at the same selectivity.
func FigS5EncodedScan(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Figure S5",
		Title:    "Encoded vectorized scan vs scalar row-at-a-time scan",
		XLabel:   "selectivity",
		YLabel:   "normalized latency",
		Baseline: "scalar executor (ScalarExec) at the same selectivity (1.0)",
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
	store := storage.NewMemStore(storage.LatencyModel{PerOp: 100 * time.Microsecond})
	eng, err := newShardedOrdersOn(store, "s5", shards, rows)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	encBytes, plainBytes, nblocks, err := blockStoreFootprint(store, "tbl/s5/")
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"on-store footprint: %d blocks, %d encoded bytes vs %d plain-layout bytes (%.1f%% of plain)",
		nblocks, encBytes, plainBytes, 100*float64(encBytes)/float64(plainBytes)))

	vec := Series{Name: "vectorized encoded (default)"}
	scalar := Series{Name: "scalar row-at-a-time"}
	for _, sel := range sels {
		res.X = append(res.X, fmt.Sprintf("%g", sel))
		threshold := int64(sel*float64(rows)) - 1
		plan := AggPushdownPlan(threshold)

		// Both executors must agree before either is worth timing.
		vres, err := ExecOnShards(eng, plan, wildfire.QueryOptions{})
		if err != nil {
			return nil, err
		}
		sres, err := ExecOnShards(eng, plan, wildfire.QueryOptions{ScalarExec: true})
		if err != nil {
			return nil, err
		}
		if len(vres.Rows) != len(sres.Rows) {
			return nil, fmt.Errorf("bench: vectorized %d result rows, scalar %d", len(vres.Rows), len(sres.Rows))
		}
		if len(vres.Rows) > 0 &&
			(vres.Rows[0][0].Int() != sres.Rows[0][0].Int() ||
				vres.Rows[0][1].Int() != sres.Rows[0][1].Int()) {
			return nil, fmt.Errorf("bench: vectorized (%v, %v) != scalar (%v, %v)",
				vres.Rows[0][0], vres.Rows[0][1], sres.Rows[0][0], sres.Rows[0][1])
		}

		var benchErr error
		tVec := timeAvg(s.Reps, func() {
			if _, err := ExecOnShards(eng, plan, wildfire.QueryOptions{}); err != nil {
				benchErr = err
			}
		})
		tScalar := timeAvg(s.Reps, func() {
			if _, err := ExecOnShards(eng, plan, wildfire.QueryOptions{ScalarExec: true}); err != nil {
				benchErr = err
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		vec.Y = append(vec.Y, tVec/tScalar)
		scalar.Y = append(scalar.Y, 1)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"selectivity %g over %s rows × %d shards: vectorized %.2f ms, scalar %.2f ms (%.1fx)",
			sel, humanCount(rows), shards, tVec*1000, tScalar*1000, tScalar/tVec))
	}
	res.Series = []Series{vec, scalar}
	res.Notes = append(res.Notes,
		"both paths skip blocks via min/max synopses; the vectorized path additionally evaluates the surviving blocks through selection bitmaps over the encoded columns and, when every visible block covers a disjoint primary-key range, emits rows without the multi-version winner map",
		"equality predicates on bloom-filtered columns (primary key, index equality columns) can skip blocks by content; the range sweep above exercises the synopsis+vectorized path")
	return res, nil
}

// blockStoreFootprint sums the marshaled size of every groomed and
// post-groomed block under prefix against the plain layout of
// the same data.
func blockStoreFootprint(store *storage.MemStore, prefix string) (enc, plain, blocks int, err error) {
	names, err := store.List(prefix)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, name := range names {
		if !strings.Contains(name, "/groomed/block-") && !strings.Contains(name, "/post/block-") {
			continue
		}
		data, err := store.Get(name)
		if err != nil {
			return 0, 0, 0, err
		}
		blk, err := columnar.Unmarshal(data)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bench: block %s: %w", name, err)
		}
		enc += len(data)
		plain += blk.PlainSize()
		blocks++
	}
	if blocks == 0 {
		return 0, 0, 0, fmt.Errorf("bench: no blocks under %s", prefix)
	}
	return enc, plain, blocks, nil
}
