package wildfire

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/types"
)

// The executor's block kernel (exec.Partial.AddBlock) groups on a dict
// column's codes when the only GROUP BY column is dict-encoded — which
// every string group column of a realistic block is. These tests pin
// that path end to end against the reference, and pin that an
// aggregate's allocations grow with blocks and groups, never with rows.

var regionNames = []string{"apac", "emea", "latam", "na"}

// regionTable is a low-cardinality string column beside the IoT keys:
// its groomed and post-groomed blocks dict-encode region.
func regionTable(cfg *ShardedConfig) {
	cfg.Table = TableDef{
		Name: "orders",
		Columns: []columnar.Column{
			{Name: "device", Kind: keyenc.KindInt64},
			{Name: "msg", Kind: keyenc.KindInt64},
			{Name: "region", Kind: keyenc.KindString},
			{Name: "amount", Kind: keyenc.KindFloat64},
		},
		PrimaryKey: []string{"device", "msg"},
		ShardKey:   []string{"device"},
	}
	cfg.Index = IndexSpec{Equality: []string{"device"}, Sort: []string{"msg"}, HashBits: 6}
}

func regionRow(device, msg int64, region string, amount float64) Row {
	return Row{keyenc.I64(device), keyenc.I64(msg), keyenc.Str(region), keyenc.F64(amount)}
}

// dictRegionBlocks counts the pending and post blocks of e's current
// version whose region column is dict-encoded.
func dictRegionBlocks(t *testing.T, e *shard) (pending, post int) {
	t.Helper()
	v := e.zone.Load()
	for _, id := range v.pending {
		blk, err := e.fetchBlock(context.Background(), groomedBlockName(e.table.Name, id))
		if err != nil {
			t.Fatal(err)
		}
		if blk.ColumnEncoding(2) == columnar.EncDict {
			pending++
		}
	}
	for _, pb := range v.post {
		blk, err := e.fetchBlock(context.Background(), postBlockName(e.table.Name, pb.id))
		if err != nil {
			t.Fatal(err)
		}
		if blk.ColumnEncoding(2) == columnar.EncDict {
			post++
		}
	}
	return pending, post
}

// TestExecuteGroupByDictColumn: updates move keys between the regions,
// so one key's versions sit in different groups across the post,
// pending and live zones. GROUP BY region aggregates, with random
// filters, at the groom boundary, with the live zone and at random
// historical boundaries, must match the naive reference.
func TestExecuteGroupByDictColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	e := newTestEngine(t, regionTable)
	td := e.table
	aggs := []exec.Agg{
		{Func: exec.Count},
		{Func: exec.Sum, Col: "amount"},
		{Func: exec.Avg, Col: "amount"},
		{Func: exec.Min, Col: "msg"},
		{Func: exec.Max, Col: "device"},
		{Func: exec.Min, Col: "region"},
		{Func: exec.Count, Col: "region"},
	}
	filters := []func() (exec.Expr, refFilter){
		func() (exec.Expr, refFilter) { return nil, func(Row) bool { return true } },
		func() (exec.Expr, refFilter) {
			m := rng.Int63n(8)
			return exec.Ge("msg", keyenc.I64(m)), func(r Row) bool { return r[1].Int() >= m }
		},
		func() (exec.Expr, refFilter) {
			reg := regionNames[rng.Intn(len(regionNames))]
			return exec.Ne("region", keyenc.Str(reg)), func(r Row) bool { return keyenc.Compare(r[2], keyenc.Str(reg)) != 0 }
		},
		func() (exec.Expr, refFilter) {
			a := float64(rng.Int63n(1000))
			return exec.Lt("amount", keyenc.F64(a)), func(r Row) bool { return r[3].Float() < a }
		},
	}

	groomed, live := map[string]Row{}, map[string]Row{}
	var boundaries []types.TS
	var history [][]Row
	var dictPending, dictPost int
	for round := 0; round < 16; round++ {
		n, err := e.groomCount()
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range live {
			groomed[k] = r
		}
		live = map[string]Row{}
		if n > 0 {
			boundaries = append(boundaries, e.lastGroomTS())
			history = append(history, modelRows(groomed))
		}
		if round%3 == 1 {
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
			if err := e.syncIndex(); err != nil {
				t.Fatal(err)
			}
		}
		p, q := dictRegionBlocks(t, e)
		dictPending, dictPost = dictPending+p, dictPost+q

		rows := make([]Row, 4+rng.Intn(16))
		for i := range rows {
			rows[i] = regionRow(rng.Int63n(6), rng.Int63n(8), regionNames[rng.Intn(len(regionNames))], float64(rng.Int63n(1000)))
		}
		if err := e.upsert(rows...); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			live[td.pkEncoding(r)] = r
		}

		type read struct {
			label   string
			opts    QueryOptions
			visible []Row
		}
		for q := 0; q < 3; q++ {
			f, rf := filters[rng.Intn(len(filters))]()
			p := exec.Plan{Filter: f, GroupBy: []string{"region"}, Aggs: aggs}
			reads := []read{
				{"groomed", QueryOptions{}, modelRows(groomed)},
				{"live", QueryOptions{IncludeLive: true}, modelRows(groomed, live)},
			}
			if len(boundaries) > 0 {
				// Only a read at the newest boundary sees the live zone.
				b := rng.Intn(len(boundaries))
				withLive := history[b]
				if b == len(boundaries)-1 {
					withLive = modelRows(groomed, live)
				}
				reads = append(reads,
					read{"historical", QueryOptions{TS: boundaries[b]}, history[b]},
					read{"historical+live", QueryOptions{TS: boundaries[b], IncludeLive: true}, withLive})
			}
			for _, r := range reads {
				r.opts.NoIndexSelection = true
				got, err := execute(e, p, r.opts)
				if err != nil {
					t.Fatal(err)
				}
				compareRows(t, fmt.Sprintf("round %d q%d %s", round, q, r.label), p, got.Rows, naiveExecute(td, p, rf, r.visible))
			}
		}
	}
	if dictPending == 0 || dictPost == 0 {
		t.Fatalf("region dict-encoded in %d pending and %d post blocks; the dict path went unexercised", dictPending, dictPost)
	}
}

// TestAggregateAllocs: one GROUP BY region aggregate over a
// post-groomed shard allocates per block and per group, never per row —
// the 16,384-row table may allocate more than the 2,048-row one only in
// proportion to its extra blocks. The live arm holds the live union to
// one allocation per live row: the primary-key string of the overlay
// map, not a view per row. The pending arm puts pending groomed updates
// of post-groomed keys beside the post zone, so every selected post row
// is probed against the shadow: that costs nothing per post row
// scanned, and nothing per pending row reconciled. The 2,048-row query
// has a fixed budget of its own. The skip arm's filter excludes every
// post block by its synopsis, before the fetch: a skipped block costs
// no allocation at all — no fetch, no object name and no scan-pool
// task.
func TestAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations")
	}
	plan := exec.Plan{
		Filter:  exec.Ge("amount", keyenc.F64(0)),
		GroupBy: []string{"region"},
		Aggs:    []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "amount"}},
	}
	skipAll := plan
	skipAll.Filter = exec.Ge("amount", keyenc.F64(1000)) // amounts are below 100
	const batch = 1024
	// measure builds a shard of rows post-groomed rows, one groom and
	// post-groom per batch, plus pendingRows (at most rows) groomed but
	// not post-groomed updates of its first keys and liveRows live new
	// keys, and returns the aggregate's allocations and the blocks it
	// reads and skips. With skip set, the query runs skipAll.
	measure := func(skip bool, rows, liveRows, pendingRows int) (float64, int64, int64) {
		e := newTestEngine(t, regionTable)
		mk := func(from, n int) []Row {
			out := make([]Row, n)
			for i := range out {
				k := int64(from + i)
				out[i] = regionRow(k/64, k%64, regionNames[k%int64(len(regionNames))], float64(k%100))
			}
			return out
		}
		for from := 0; from < rows; from += batch {
			if err := e.upsert(mk(from, batch)...); err != nil {
				t.Fatal(err)
			}
			if _, err := e.groomCount(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.syncIndex(); err != nil {
			t.Fatal(err)
		}
		for from := 0; from < pendingRows; from += batch {
			if err := e.upsert(mk(from, min(batch, pendingRows-from))...); err != nil {
				t.Fatal(err)
			}
			if _, err := e.groomCount(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.upsert(mk(rows, liveRows)...); err != nil {
			t.Fatal(err)
		}
		p, wantCount, wantGroups := plan, int64(rows+liveRows), len(regionNames)
		if skip {
			p, wantCount, wantGroups = skipAll, 0, 0
		}
		opts := QueryOptions{IncludeLive: liveRows > 0, NoIndexSelection: true}
		tr := obs.NewQueryTrace()
		traced := opts
		traced.Trace = tr
		res, err := execute(e, p, traced) // also warms the block cache and the synopses
		if err != nil {
			t.Fatal(err)
		}
		var count int64
		for _, r := range res.Rows {
			count += r[1].Int()
		}
		if count != wantCount || len(res.Rows) != wantGroups {
			t.Fatalf("%d rows + %d live: COUNT %d over %d groups", rows, liveRows, count, len(res.Rows))
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := execute(e, p, opts); err != nil {
				t.Fatal(err)
			}
		})
		snap := tr.Snapshot()
		return allocs, snap.BlocksRead, snap.BlocksSkipped
	}

	// perBlock bounds what one more scanned block may cost: its
	// selection and visibility bitmaps, the scan pool's bookkeeping and
	// the kernel's scratch when it grows.
	const perBlock = 12
	small, smallBlocks, _ := measure(false, 2*batch, 0, 0)
	large, largeBlocks, _ := measure(false, 16*batch, 0, 0)
	if extra := large - small; extra > perBlock*float64(largeBlocks-smallBlocks) {
		t.Errorf("aggregate allocs: %v at %d rows over %d blocks, %v at %d rows over %d blocks (+%v, budget %d per extra block)",
			small, 2*batch, smallBlocks, large, 16*batch, largeBlocks, extra, perBlock)
	}
	// perQuery bounds the whole 2,048-row query: the plan's partial, its
	// groups, the scan's bookkeeping and two blocks' bitmaps.
	const perQuery = 75
	if small > perQuery {
		t.Errorf("aggregate allocs: %v at %d rows over %d blocks, budget %d", small, 2*batch, smallBlocks, perQuery)
	}

	// A synopsis-skipped post block is classified inline: one more of
	// them costs nothing.
	skipSmall, _, skipSmallBlocks := measure(true, 2*batch, 0, 0)
	skipLarge, _, skipLargeBlocks := measure(true, 16*batch, 0, 0)
	if skipLargeBlocks <= skipSmallBlocks || skipLarge > skipSmall {
		t.Errorf("skipped aggregate allocs: %v at %d rows over %d skipped blocks, %v at %d rows over %d, want no allocation per extra skipped block",
			skipSmall, 2*batch, skipSmallBlocks, skipLarge, 16*batch, skipLargeBlocks)
	}

	few, _, _ := measure(false, 2*batch, 256, 0)
	many, _, _ := measure(false, 2*batch, 2048, 0)
	if perRow := (many - few) / (2048 - 256); perRow > 1.25 {
		t.Errorf("live union: %.2f allocations per live row (%v at 256 live rows, %v at 2048), want at most its key string",
			perRow, few, many)
	}

	// The shadow arm: the same pending updates beside a small and a large
	// post zone, then more pending rows beside the same post zone.
	shadowSmall, shadowSmallBlocks, _ := measure(false, 2*batch, 0, 512)
	shadowLarge, shadowLargeBlocks, _ := measure(false, 16*batch, 0, 512)
	if extra := shadowLarge - shadowSmall; extra > perBlock*float64(shadowLargeBlocks-shadowSmallBlocks) {
		t.Errorf("shadowed aggregate allocs: %v at %d post rows over %d blocks, %v at %d over %d blocks (+%v, budget %d per extra block)",
			shadowSmall, 2*batch, shadowSmallBlocks, shadowLarge, 16*batch, shadowLargeBlocks, extra, perBlock)
	}
	shadowMore, shadowMoreBlocks, _ := measure(false, 2*batch, 0, 2*batch)
	if extra := shadowMore - shadowSmall; extra > perBlock*float64(shadowMoreBlocks-shadowSmallBlocks) {
		t.Errorf("shadowed aggregate allocs: %v at 512 pending rows over %d blocks, %v at %d over %d blocks (+%v, budget %d per extra block)",
			shadowSmall, shadowSmallBlocks, shadowMore, 2*batch, shadowMoreBlocks, extra, perBlock)
	}
}

// TestRowPlanAllocs: an unordered 3-column projection of a post-groomed
// 16,384-row table, run and drained through RunQuery, allocates per
// arena chunk and per block, not per scanned row: its projected rows
// are carved from the partial's arena, and finalizing encodes and sorts
// nothing. The same holds at Limit 1 and Limit 100, where the partial
// drops every row after its first Limit without encoding a key for it.
func TestRowPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations")
	}
	const rows, batch = 16 * 1024, 1024
	s := newTestShardedEngine(t, 1, nil)
	for from := 0; from < rows; from += batch {
		out := make([]Row, batch)
		for i := range out {
			k := int64(from + i)
			out[i] = row(k/64, k%64, float64(k%100), 100)
		}
		if err := s.UpsertRows(out...); err != nil {
			t.Fatal(err)
		}
		if err := s.Groom(); err != nil {
			t.Fatal(err)
		}
		if err := s.PostGroom(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 100} {
		spec := QuerySpec{Columns: []string{"device", "msg", "reading"}, Limit: limit, TS: types.MaxTS}
		drain := func() int {
			qr, err := s.RunQuery(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for qr.Cursor.Next() {
				n++
			}
			if err := qr.Close(); err != nil {
				t.Fatal(err)
			}
			return n
		}
		want := rows
		if limit > 0 {
			want = limit
		}
		if n := drain(); n != want { // also warms the block cache
			t.Fatalf("projection at Limit %d returned %d rows, want %d", limit, n, want)
		}
		allocs := testing.AllocsPerRun(10, func() { drain() })
		perRow := allocs / rows
		t.Logf("Limit %d: %.3f allocations per scanned row", limit, perRow)
		if perRow > 0.05 {
			t.Errorf("row plan at Limit %d: %.0f allocations for %d scanned rows (%.3f per row), budget 0.05 per row", limit, allocs, rows, perRow)
		}
	}
}
