package wildfire

import (
	"context"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
)

// Directed tests of the analytical executor: zone union, multi-version
// reconciliation under updates, the live-zone union, recovery of the
// post-block list, and limit pushdown in the sharded ordered scan. The
// randomized equivalence property lives in execute_prop_test.go.

func sumReadings(t *testing.T, eng *shard, p exec.Plan, opts QueryOptions) *exec.Result {
	t.Helper()
	res, err := execute(eng, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExecuteAggregatesAcrossZones(t *testing.T) {
	e := newTestEngine(t, nil)

	// Cycle 1: devices 0..2, then post-groom so the rows live in the
	// post-groomed zone. Cycle 2 stays groomed. Cycle 3 stays live.
	for dev := int64(0); dev < 3; dev++ {
		if err := e.upsert(row(dev, 1, 10, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	for dev := int64(0); dev < 3; dev++ {
		if err := e.upsert(row(dev, 2, 20, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(0, 3, 40, 2)); err != nil {
		t.Fatal(err)
	}

	plan := exec.Plan{Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}}}

	// Without the live zone: 3 post-groomed + 3 groomed rows.
	res := sumReadings(t, e, plan, QueryOptions{})
	if res.Rows[0][0].Int() != 6 || res.Rows[0][1].Float() != 90 {
		t.Fatalf("zones aggregate = %v, want count 6 sum 90", res.Rows[0])
	}
	// With it: the live row joins.
	res = sumReadings(t, e, plan, QueryOptions{IncludeLive: true})
	if res.Rows[0][0].Int() != 7 || res.Rows[0][1].Float() != 130 {
		t.Fatalf("live-union aggregate = %v, want count 7 sum 130", res.Rows[0])
	}
	// Grouped, filtered: readings >= 20 per day.
	res = sumReadings(t, e, exec.Plan{
		Filter:  exec.Ge("reading", keyenc.F64(20)),
		GroupBy: []string{"day"},
		Aggs:    []exec.Agg{{Func: exec.Count}, {Func: exec.Avg, Col: "reading"}},
	}, QueryOptions{IncludeLive: true})
	if len(res.Rows) != 2 {
		t.Fatalf("got %d groups, want 2: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 3 || res.Rows[0][2].Float() != 20 {
		t.Fatalf("day 1 group = %v", res.Rows[0])
	}
	if res.Rows[1][0].Int() != 2 || res.Rows[1][1].Int() != 1 || res.Rows[1][2].Float() != 40 {
		t.Fatalf("day 2 group = %v", res.Rows[1])
	}
}

// TestExecuteUpdateShadowing is the case a naive pushdown gets wrong: a
// key's old version matches the filter but its newest version does not,
// so the key must not appear — even though the newest version sits in a
// block the filter synopsis excludes (all its readings are out of
// range), and even when the newest version is still in the live zone.
func TestExecuteUpdateShadowing(t *testing.T) {
	e := newTestEngine(t, nil)

	// v1 of both keys matches reading < 50.
	if err := e.upsert(row(1, 1, 10, 1), row(2, 1, 20, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	firstTS := e.lastGroomTS()
	// v2 of key (1,1) does not match; the whole cycle-2 block is out of
	// the filter's range, so the executor prunes it by synopsis and must
	// still let it shadow v1.
	if err := e.upsert(row(1, 1, 100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}

	plan := exec.Plan{
		Filter: exec.Lt("reading", keyenc.F64(50)),
		Aggs:   []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}},
	}
	res := sumReadings(t, e, plan, QueryOptions{})
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Float() != 20 {
		t.Fatalf("after groomed update: %v, want count 1 sum 20", res.Rows[0])
	}
	// Time travel: at the first groom boundary v1 is current again.
	res = sumReadings(t, e, plan, QueryOptions{TS: firstTS})
	if res.Rows[0][0].Int() != 2 || res.Rows[0][1].Float() != 30 {
		t.Fatalf("at first boundary: %v, want count 2 sum 30", res.Rows[0])
	}

	// A live update shadows key (2,1) when the live zone is included,
	// and is invisible without it.
	if err := e.upsert(row(2, 1, 200, 1)); err != nil {
		t.Fatal(err)
	}
	res = sumReadings(t, e, plan, QueryOptions{})
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("live update leaked into groomed-only read: %v", res.Rows[0])
	}
	res = sumReadings(t, e, plan, QueryOptions{IncludeLive: true})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || res.Rows[0][1].Float() != 0 {
		t.Fatalf("live-shadowed read = %v, want the zero-count aggregate row", res.Rows)
	}
}

// TestExecuteRecoversPostBlocks checks that a reopened engine rebuilds
// the published post-block list from PSN metadata: post-groomed records
// must stay visible to the executor after a restart.
func TestExecuteRecoversPostBlocks(t *testing.T) {
	cfg := ShardedConfig{
		Table: iotTable(),
		Index: iotIndex(),
		Store: storage.NewMemStore(storage.LatencyModel{}),
	}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for dev := int64(0); dev < 4; dev++ {
		if err := e.upsert(row(dev, 1, float64(dev), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	// One more groomed-but-not-post-groomed cycle.
	if err := e.upsert(row(9, 1, 9, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}

	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	res, err := execute(e2, exec.Plan{Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}}}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 5 || res.Rows[0][1].Float() != 0+1+2+3+9 {
		t.Fatalf("recovered aggregate = %v, want count 5 sum 15", res.Rows[0])
	}
}

func TestExecuteErrors(t *testing.T) {
	s := newTestShardedEngine(t, 2, nil)
	if _, err := tableExecute(s, exec.Plan{Filter: exec.Eq("nope", keyenc.I64(1))}, QueryOptions{}); err == nil {
		t.Fatal("bad plan accepted by sharded Execute")
	}
	e := newTestEngine(t, nil)
	if _, err := execute(e, exec.Plan{GroupBy: []string{"day"}}, QueryOptions{}); err == nil {
		t.Fatal("bad plan accepted by Execute")
	}
}

// TestShardedScanLimit checks limit pushdown: a limited ordered scan
// returns exactly the global prefix of the unlimited scan, and each
// shard materializes at most Limit rows.
func TestShardedScanLimit(t *testing.T) {
	s := newTestShardedEngine(t, 4, func(c *ShardedConfig) { c.Table = msgShardedTable() })
	const msgs = 40
	for m := int64(0); m < msgs; m++ {
		if err := s.UpsertRows(row(7, m, float64(m), 1)); err != nil {
			t.Fatal(err)
		}
		if m%10 == 9 {
			if err := s.Groom(); err != nil {
				t.Fatal(err)
			}
		}
	}
	eq := []keyenc.Value{keyenc.I64(7)}
	full, err := tableScanOn(s, "", eq, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != msgs {
		t.Fatalf("full scan returned %d rows, want %d", len(full), msgs)
	}
	for _, limit := range []int{1, 7, msgs, msgs + 5} {
		got, err := tableScanOnLimit(s, "", eq, nil, nil, QueryOptions{}, limit)
		if err != nil {
			t.Fatal(err)
		}
		want := limit
		if want > msgs {
			want = msgs
		}
		if len(got) != want {
			t.Fatalf("limit %d: got %d rows", limit, len(got))
		}
		for i := range got {
			if keyenc.Compare(got[i].Row[1], full[i].Row[1]) != 0 {
				t.Fatalf("limit %d row %d: msg %v, want %v", limit, i, got[i].Row[1], full[i].Row[1])
			}
		}
		// Index-only scans honor the limit identically.
		ir, err := tableIndexOnlyOnLimit(s, "", eq, nil, nil, QueryOptions{}, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(ir) != want {
			t.Fatalf("limit %d: index-only returned %d rows", limit, len(ir))
		}
	}
	// The per-shard scans saw the limit too: a 1-row limit must not make
	// any shard return its full partition.
	one, err := scanOnLimit(s.shards[0], "", eq, nil, nil, QueryOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) > 1 {
		t.Fatalf("shard-local limited scan returned %d rows", len(one))
	}

	// The analytical executor honors the spec's limit as well.
	qr, err := s.RunQuery(context.Background(), QuerySpec{Columns: []string{"msg"}, Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drainCursor(qr.Cursor, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("executor plan limit 7: %d rows", len(rows))
	}
}

// TestUnorderedRowOrderStated: an unlimited row query without OrderBy
// is not sorted, but its order is stated and repeatable. On an unchanged
// 4-shard table with post-groomed, pending and live rows, two runs
// return the same rows in the same order; the rows come shard by shard,
// each shard's post rows before its pending winners before its live
// rows, and the live rows in commit order. The day column tags each
// version's zone; a live row's reading is its commit counter.
func TestUnorderedRowOrderStated(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	const postDay, pendingDay, liveDay = 100, 200, 300
	var post []Row
	for dev := int64(0); dev < 16; dev++ {
		for msg := int64(0); msg < 16; msg++ {
			post = append(post, row(dev, msg, float64(msg), postDay))
		}
	}
	if err := s.UpsertRows(post...); err != nil {
		t.Fatal(err)
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	if err := s.PostGroom(); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	// Pending: updates of every fourth post key, and new keys.
	var pending []Row
	for dev := int64(0); dev < 16; dev++ {
		for msg := int64(0); msg < 16; msg += 4 {
			pending = append(pending, row(dev, msg, -1, pendingDay))
		}
		pending = append(pending, row(dev, 100, -1, pendingDay))
	}
	if err := s.UpsertRows(pending...); err != nil {
		t.Fatal(err)
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	// Live, one commit each: updates of post and pending keys, new keys,
	// and keys committed twice, whose second version wins.
	commit := 0
	for _, k := range [][2]int64{{3, 1}, {7, 100}, {0, 200}, {12, 5}, {3, 4}, {9, 200}, {0, 200}, {15, 100}, {3, 1}, {6, 9}} {
		if err := s.UpsertRows(row(k[0], k[1], float64(commit), liveDay)); err != nil {
			t.Fatal(err)
		}
		commit++
	}

	spec := QuerySpec{IncludeLive: true}
	run := func() [][]keyenc.Value {
		rows, err := drainCursor(func() (*Cursor[[]keyenc.Value], error) {
			qr, err := s.RunQuery(context.Background(), spec)
			if err != nil {
				return nil, err
			}
			return qr.Cursor, nil
		}())
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	first, second := run(), run()
	if want := 16*16 + 16 + 2; len(first) != want { // two live keys are new
		t.Fatalf("%d rows, want %d", len(first), want)
	}
	if len(second) != len(first) {
		t.Fatalf("second run: %d rows, first %d", len(second), len(first))
	}
	for i := range first {
		for c := range first[i] {
			if keyenc.Compare(first[i][c], second[i][c]) != 0 {
				t.Fatalf("row %d differs between runs: %v then %v", i, first[i], second[i])
			}
		}
	}

	lastShard, lastDay, lastCommit := -1, int64(0), -1.0
	live := 0
	for i, r := range first {
		sh, day := s.router.shardOfRow(r), r[3].Int()
		switch {
		case sh < lastShard:
			t.Fatalf("row %d %v: shard %d after shard %d", i, r, sh, lastShard)
		case sh > lastShard:
			lastShard, lastDay, lastCommit = sh, 0, -1
		}
		if day < lastDay {
			t.Fatalf("row %d %v: day %d after day %d in shard %d (zones out of order)", i, r, day, lastDay, sh)
		}
		lastDay = day
		if day == liveDay {
			live++
			if r[2].Float() <= lastCommit {
				t.Fatalf("row %d %v: live commit %v after commit %v in shard %d", i, r, r[2].Float(), lastCommit, sh)
			}
			lastCommit = r[2].Float()
		}
	}
	if live != 8 {
		t.Fatalf("%d live rows, want 8 (10 commits, 2 keys twice)", live)
	}
}
