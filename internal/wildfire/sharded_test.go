package wildfire

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"umzi/internal/core"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// msgShardedTable is the IoT table sharded by the sort column (msg): a
// scan for one device then spans every shard, exercising the
// scatter-gather path and the sort-merge.
func msgShardedTable() TableDef {
	td := iotTable()
	td.ShardKey = []string{"msg"}
	return td
}

func newTestShardedEngine(t *testing.T, shards int, mutate func(*ShardedConfig)) *ShardedEngine {
	t.Helper()
	cfg := ShardedConfig{
		Table:  iotTable(),
		Index:  iotIndex(),
		Shards: shards,
		Store:  storage.NewMemStore(storage.LatencyModel{}),
	}
	cfg.IndexTuning.K = 2
	cfg.IndexTuning.GroomedLevels = 3
	cfg.IndexTuning.PostGroomedLevels = 2
	cfg.IndexTuning.BlockSize = 1024
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestShardRouterAgreement(t *testing.T) {
	primaryOf := func(td TableDef) *tableIndex { return newTableIndex(td, iotIndex(), "", iotIndex()) }
	// shardOfRow and shardOfKey must agree for every key, under both
	// sharding layouts (shard key in equality vs in sort columns).
	for _, td := range []TableDef{iotTable(), msgShardedTable()} {
		r, pri := newShardRouter(td, 4), primaryOf(td)
		used := map[int]bool{}
		for dev := int64(0); dev < 16; dev++ {
			for msg := int64(0); msg < 16; msg++ {
				byRow := r.shardOfRow(row(dev, msg, 1.0, 100))
				eq, sortv := key(dev, msg)
				byKey := r.shardOfKey(pri, eq, sortv)
				if byRow != byKey {
					t.Fatalf("%v: row routes to %d, key to %d", td.ShardKey, byRow, byKey)
				}
				used[byRow] = true
			}
		}
		if len(used) != 4 {
			t.Errorf("%v: only %d of 4 shards used over 256 keys", td.ShardKey, len(used))
		}
	}
	// Device-sharded scans pin; msg-sharded scans scatter.
	rd := newShardRouter(iotTable(), 4)
	if _, ok := rd.pin(primaryOf(iotTable()), []keyenc.Value{keyenc.I64(7)}); !ok {
		t.Error("device-sharded scan did not pin")
	}
	rm := newShardRouter(msgShardedTable(), 4)
	if _, ok := rm.pin(primaryOf(msgShardedTable()), []keyenc.Value{keyenc.I64(7)}); ok {
		t.Error("msg-sharded scan pinned")
	}
	// No declared shard key: route by the full primary key.
	td := iotTable()
	td.ShardKey = nil
	rp, pri := newShardRouter(td, 4), primaryOf(td)
	if _, ok := rp.pin(pri, []keyenc.Value{keyenc.I64(7)}); ok {
		t.Error("pk-sharded scan pinned despite msg in the routing key")
	}
	if rp.shardOfRow(row(3, 5, 0, 0)) != rp.shardOfKey(pri, []keyenc.Value{keyenc.I64(3)}, []keyenc.Value{keyenc.I64(5)}) {
		t.Error("pk routing disagrees between row and key")
	}
	// Secondaries follow the same rule: one whose equality columns
	// include the sharding key pins every row's scan to the row's own
	// shard, wherever device sits among them; one equal on day alone
	// carries device only as a sort uniquifier and scatters.
	byDayDev := newTableIndex(iotTable(), iotIndex(), "by_day_dev",
		IndexSpec{Equality: []string{"day", "device"}, Sort: []string{"reading"}})
	byDay := newTableIndex(iotTable(), iotIndex(), "by_day", IndexSpec{Equality: []string{"day"}})
	for dev := int64(0); dev < 16; dev++ {
		for day := int64(0); day < 4; day++ {
			r := row(dev, dev*day, float64(day), day)
			shard, ok := rd.pin(byDayDev, byDayDev.rowEq(r))
			if !ok || shard != rd.shardOfRow(r) {
				t.Fatalf("by_day_dev scan of %v: pin = (%d, %v), row lives on shard %d", r, shard, ok, rd.shardOfRow(r))
			}
			if _, ok := rd.pin(byDay, byDay.rowEq(r)); ok {
				t.Fatalf("by_day scan of %v pinned", r)
			}
		}
	}
}

func TestShardedIngestGroomGet(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	const devices, msgs = 8, 6
	for dev := int64(0); dev < devices; dev++ {
		for msg := int64(0); msg < msgs; msg++ {
			if err := s.UpsertRows(row(dev, msg, float64(dev*100+msg), 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.LiveCount(); got != devices*msgs {
		t.Fatalf("LiveCount = %d, want %d", got, devices*msgs)
	}
	n, err := s.groomCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != devices*msgs {
		t.Fatalf("groomed %d, want %d", n, devices*msgs)
	}
	if got := s.LiveCount(); got != 0 {
		t.Fatalf("LiveCount after groom = %d", got)
	}
	for dev := int64(0); dev < devices; dev++ {
		for msg := int64(0); msg < msgs; msg++ {
			eq, sortv := key(dev, msg)
			rec, found, err := tableGetOn(s, "", eq, sortv, QueryOptions{})
			if err != nil || !found {
				t.Fatalf("get (%d,%d): %v %v", dev, msg, err, found)
			}
			if rec.Row[2].Float() != float64(dev*100+msg) {
				t.Errorf("get (%d,%d) = %v", dev, msg, rec.Row[2])
			}
		}
	}
	eq, sortv := key(99, 99)
	if _, found, _ := tableGetOn(s, "", eq, sortv, QueryOptions{}); found {
		t.Error("found absent key")
	}
}

func TestShardedScanFanOutOrdered(t *testing.T) {
	// msg-sharded: one device's messages are spread over every shard, so
	// the scan scatters and the merge must restore global msg order.
	s := newTestShardedEngine(t, 4, func(c *ShardedConfig) { c.Table = msgShardedTable() })
	const msgs = 40
	for msg := int64(0); msg < msgs; msg++ {
		if err := s.UpsertRows(row(7, msg, float64(msg), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	eq := []keyenc.Value{keyenc.I64(7)}
	recs, err := tableScanOn(s, "", eq, []keyenc.Value{keyenc.I64(5)}, []keyenc.Value{keyenc.I64(34)}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 {
		t.Fatalf("scan returned %d, want 30", len(recs))
	}
	for i, rec := range recs {
		if rec.Row[1].Int() != int64(5+i) {
			t.Fatalf("scan[%d] msg = %v, want %d (global order)", i, rec.Row[1], 5+i)
		}
	}
	// Index-only fan-out scan merges the same way.
	rows, err := tableIndexOnlyOn(s, "", eq, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != msgs {
		t.Fatalf("index-only scan returned %d, want %d", len(rows), msgs)
	}
	for i, r := range rows {
		if r[0].Int() != 7 || r[1].Int() != int64(i) || r[2].Float() != float64(i) {
			t.Errorf("index-only row %d = %v", i, r)
		}
	}
}

func TestShardedScanPinned(t *testing.T) {
	// device-sharded: a per-device scan is served by exactly one shard
	// and must equal querying that shard directly.
	s := newTestShardedEngine(t, 4, nil)
	for dev := int64(0); dev < 6; dev++ {
		for msg := int64(0); msg < 10; msg++ {
			if err := s.UpsertRows(row(dev, msg, float64(msg), 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	for dev := int64(0); dev < 6; dev++ {
		eq := []keyenc.Value{keyenc.I64(dev)}
		got, err := tableScanOn(s, "", eq, nil, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 10 {
			t.Fatalf("dev %d: %d results", dev, len(got))
		}
		shard, ok := s.router.pin(s.primary(), eq)
		if !ok {
			t.Fatal("expected pinned scan")
		}
		direct, err := scanOn(s.shards[shard], "", eq, nil, nil, QueryOptions{TS: types.MaxTS})
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(got) {
			t.Fatalf("dev %d: pinned scan %d results, shard %d directly %d", dev, len(got), shard, len(direct))
		}
	}
}

func TestShardedGetBatch(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	const devices, msgs = 6, 5
	for dev := int64(0); dev < devices; dev++ {
		for msg := int64(0); msg < msgs; msg++ {
			if err := s.UpsertRows(row(dev, msg, float64(dev*10+msg), 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	// A batch mixing hits across all shards with misses.
	var keys []core.LookupKey
	type kk struct{ dev, msg int64 }
	var want []kk
	for dev := int64(0); dev < devices+2; dev++ {
		for msg := int64(0); msg < msgs+1; msg += 2 {
			keys = append(keys, core.LookupKey{
				Equality: []keyenc.Value{keyenc.I64(dev)},
				Sort:     []keyenc.Value{keyenc.I64(msg)},
			})
			want = append(want, kk{dev, msg})
		}
	}
	recs, found, err := s.GetBatch(keys, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range want {
		wantFound := k.dev < devices && k.msg < msgs
		if found[i] != wantFound {
			t.Fatalf("batch[%d] (%d,%d): found=%v want %v", i, k.dev, k.msg, found[i], wantFound)
		}
		if found[i] && recs[i].Row[2].Float() != float64(k.dev*10+k.msg) {
			t.Errorf("batch[%d]: reading %v", i, recs[i].Row[2])
		}
	}
}

// TestShardedGetBatchRefusesIncludeLive: a batched lookup reads the
// indexed zones only, so with IncludeLive it would return a groomed
// version that a live update has replaced. It refuses the option
// instead, naming it; the point get honors it.
func TestShardedGetBatchRefusesIncludeLive(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	if err := s.UpsertRows(row(1, 1, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	if err := s.UpsertRows(row(1, 1, 2, 100)); err != nil {
		t.Fatal(err)
	}
	eq, sortv := []keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}
	live := QueryOptions{IncludeLive: true}
	rec, found, err := tableGetOn(s, "", eq, sortv, live)
	if err != nil || !found || rec.Row[2].Float() != 2 {
		t.Fatalf("point get with IncludeLive: %v found=%v err=%v, want reading 2", rec.Row, found, err)
	}
	keys := []core.LookupKey{{Equality: eq, Sort: sortv}}
	if _, _, err := s.GetBatch(keys, live); err == nil || !strings.Contains(err.Error(), "IncludeLive") {
		t.Fatalf("GetBatch with IncludeLive: err = %v, want a refusal naming IncludeLive", err)
	}
	recs, ok, err := s.GetBatch(keys, QueryOptions{})
	if err != nil || !ok[0] || recs[0].Row[2].Float() != 1 {
		t.Fatalf("GetBatch: %v found=%v err=%v, want the groomed reading 1", recs, ok, err)
	}
}

// TestShardedTxnLifecycle covers what ShardedEngine.Commit checks: a
// bad row anywhere or a cancelled context commits nothing, and a
// 4-shard commit lands every row on its owning shard.
func TestShardedTxnLifecycle(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	ctx := context.Background()
	var rows []Row
	for dev := int64(0); dev < 8; dev++ {
		for msg := int64(0); msg < 4; msg++ {
			rows = append(rows, row(dev, msg, float64(dev), 1))
		}
	}

	bad := append(append([]Row(nil), rows...), Row{keyenc.I64(1)})
	if err := s.Commit(ctx, bad); err == nil {
		t.Error("short row accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.Commit(cancelled, rows); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled commit: err = %v, want context.Canceled", err)
	}
	if s.LiveCount() != 0 {
		t.Fatalf("LiveCount = %d, want 0 (rejected commits commit nothing)", s.LiveCount())
	}

	if err := s.Commit(ctx, rows); err != nil {
		t.Fatal(err)
	}
	want := make([]int, s.NumShards())
	for _, r := range rows {
		want[s.router.shardOfRow(r)]++
	}
	touched := 0
	for i, e := range s.shards {
		if got := e.liveCount(); got != want[i] {
			t.Errorf("shard %d: LiveCount = %d, want %d", i, got, want[i])
		}
		if want[i] > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Errorf("rows landed on %d shard(s), want a commit spanning shards", touched)
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		eq, sortv := key(r[0].Int(), r[1].Int())
		if _, found, err := tableGetOn(s, "", eq, sortv, QueryOptions{}); err != nil || !found {
			t.Fatalf("row %v: found=%v err=%v", r[:2], found, err)
		}
	}
}

func TestShardedSnapshotLockstep(t *testing.T) {
	// Groom rounds in which only some shards receive data must still
	// advance every shard's snapshot clock, so the cross-shard snapshot
	// boundary (the min) moves and covers all groomed data.
	s := newTestShardedEngine(t, 4, nil)
	var lastTS types.TS
	for round := int64(0); round < 6; round++ {
		// One device per round: exactly one shard gets data.
		for msg := int64(0); msg < 4; msg++ {
			if err := s.UpsertRows(row(round, msg, float64(round), 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Groom(); err != nil {
			t.Fatal(err)
		}
		ts := s.SnapshotTS()
		if ts <= lastTS {
			t.Fatalf("round %d: snapshot %v did not advance past %v", round, ts, lastTS)
		}
		lastTS = ts
		// Default-snapshot reads see everything groomed so far.
		for dev := int64(0); dev <= round; dev++ {
			recs, err := tableScanOn(s, "", []keyenc.Value{keyenc.I64(dev)}, nil, nil, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 4 {
				t.Fatalf("round %d dev %d: %d rows at snapshot, want 4", round, dev, len(recs))
			}
		}
	}
	// All shard clocks are equal after lockstep rounds.
	c0 := s.shards[0].groomCycle.Load()
	for i := 1; i < s.NumShards(); i++ {
		if c := s.shards[i].groomCycle.Load(); c != c0 {
			t.Fatalf("shard %d at cycle %d, shard 0 at %d", i, c, c0)
		}
	}
}

// TestShardedLiveReadMidGroomRound pins the default read point of a
// read that includes live: while a lockstep groom round has reached only
// some shards, COUNT(*) must still count every committed row. Resolving
// TS 0 to SnapshotTS (the minimum over shards) would cut the groomed
// shard below its new groom boundary, where it no longer reads live —
// its just-groomed rows would vanish until the round finishes.
func TestShardedLiveReadMidGroomRound(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	for dev := int64(0); dev < 40; dev++ {
		if err := s.UpsertRows(row(dev, 0, 1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	count := func(stage string) {
		t.Helper()
		qr, err := s.RunQuery(context.Background(), QuerySpec{Aggs: []exec.Agg{{Func: exec.Count}}, IncludeLive: true})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drainCursor(qr.Cursor, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := rows[0][0].Int(); n != 40 {
			t.Fatalf("%s: COUNT(*) with live = %d, want 40", stage, n)
		}
	}
	count("all live")
	if _, err := s.shards[0].groomCount(); err != nil {
		t.Fatal(err)
	}
	count("shard 0 groomed")
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	count("round finished")
}

func TestShardedRecovery(t *testing.T) {
	// Shards recover independently from the shared store; the reopened
	// engine realigns shard clocks and serves the same data.
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{
		Table:  iotTable(),
		Index:  iotIndex(),
		Shards: 4,
		Store:  store,
	}
	cfg.IndexTuning.BlockSize = 1024
	s, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const devices, msgs = 6, 4
	for dev := int64(0); dev < devices; dev++ {
		for msg := int64(0); msg < msgs; msg++ {
			if err := s.UpsertRows(row(dev, msg, float64(dev+1), 100)); err != nil {
				t.Fatal(err)
			}
		}
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for dev := int64(0); dev < devices; dev++ {
		recs, err := tableScanOn(s2, "", []keyenc.Value{keyenc.I64(dev)}, nil, nil, QueryOptions{TS: types.MaxTS})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != msgs {
			t.Fatalf("dev %d after recovery: %d rows, want %d", dev, len(recs), msgs)
		}
		for _, rec := range recs {
			if rec.Row[2].Float() != float64(dev+1) {
				t.Errorf("dev %d after recovery: reading %v", dev, rec.Row[2])
			}
		}
	}
}

func TestShardedHistoryAndPostGroom(t *testing.T) {
	s := newTestShardedEngine(t, 3, nil)
	// Three versions of one key across groom rounds, post-groomed in
	// between so prevRID chains resolve.
	for v := 1; v <= 3; v++ {
		if err := s.UpsertRows(row(5, 1, float64(v), 100)); err != nil {
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
	}
	eq, sortv := key(5, 1)
	hist := history(t, s.shards[s.router.shardOfKey(s.primary(), eq, sortv)], eq, sortv)
	if len(hist) != 3 {
		t.Fatalf("history length %d, want 3", len(hist))
	}
	for i, want := range []float64{3, 2, 1} {
		if hist[i].Row[2].Float() != want {
			t.Errorf("history[%d] = %v, want %v", i, hist[i].Row[2], want)
		}
	}
}

func TestShardedBackgroundDaemons(t *testing.T) {
	// Start adds exactly two goroutines to a table — the propagation
	// owner and the index maintainer — whatever its shard, index and
	// level counts, and Close takes both away.
	counted := newTestShardedEngine(t, 4, func(c *ShardedConfig) {
		c.Secondaries = []SecondaryIndexSpec{{Name: "by_day", IndexSpec: IndexSpec{Equality: []string{"day"}, HashBits: 4}}}
		c.IndexTuning = core.Config{} // default levels
	})
	base := runtime.NumGoroutine()
	counted.Start(time.Hour, time.Hour) // no tick fires: nothing transient
	if n := runtime.NumGoroutine() - base; n != 2 {
		t.Fatalf("Start added %d goroutines, want 2", n)
	}
	if err := counted.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
	}

	// The owner must groom in lockstep rounds. A workload touching only
	// one shard would freeze SnapshotTS forever under per-shard grooming
	// (idle shards never advance their clocks), making default-timestamp
	// reads permanently stale.
	s := newTestShardedEngine(t, 4, nil)
	s.Start(time.Millisecond, 5*time.Millisecond)
	// One device: exactly one shard receives data.
	if err := s.UpsertRows(row(3, 1, 7.5, 100)); err != nil {
		t.Fatal(err)
	}
	eq, sortv := key(3, 1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		// Default-snapshot read (TS zero resolves to SnapshotTS).
		rec, found, err := tableGetOn(s, "", eq, sortv, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if found {
			if rec.Row[2].Float() != 7.5 {
				t.Fatalf("daemon-groomed read = %v", rec.Row[2])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("row never became visible at SnapshotTS %v (frozen shard clock?)", s.SnapshotTS())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is fine.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedMalformedKeys(t *testing.T) {
	// Short or missing key values must error like the single-engine path,
	// not panic inside the router.
	s := newTestShardedEngine(t, 4, nil)
	if err := s.UpsertRows(row(1, 1, 1.0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tableGetOn(s, "", nil, nil, QueryOptions{}); err == nil {
		t.Error("Get with empty key accepted")
	}
	if _, _, err := tableGetOn(s, "", []keyenc.Value{keyenc.I64(1)}, nil, QueryOptions{}); err == nil {
		t.Error("Get without sort values accepted")
	}
	if _, err := tableScanOn(s, "", nil, nil, nil, QueryOptions{}); err == nil {
		t.Error("Scan without equality values accepted")
	}
	if _, err := tableIndexOnlyOn(s, "", nil, nil, nil, QueryOptions{}); err == nil {
		t.Error("IndexOnlyScan without equality values accepted")
	}
	if _, _, err := s.GetBatch([]core.LookupKey{{Equality: []keyenc.Value{keyenc.I64(1)}}}, QueryOptions{}); err == nil {
		t.Error("GetBatch with short key accepted")
	}
}

func TestShardedConfigValidation(t *testing.T) {
	base := ShardedConfig{
		Table: iotTable(),
		Index: iotIndex(),
		Store: storage.NewMemStore(storage.LatencyModel{}),
	}
	bad := base
	bad.Store = nil
	if _, err := NewShardedEngine(bad); err == nil {
		t.Error("missing store accepted")
	}
	bad = base
	bad.Table.PrimaryKey = nil
	if _, err := NewShardedEngine(bad); err == nil {
		t.Error("invalid table accepted")
	}
	bad = base
	bad.Index.Sort = nil
	if _, err := NewShardedEngine(bad); err == nil {
		t.Error("invalid index spec accepted")
	}
	byReading := SecondaryIndexSpec{Name: "by_reading", IndexSpec: IndexSpec{Equality: []string{"reading"}}}
	bad = base
	bad.Secondaries = []SecondaryIndexSpec{{Name: "by_ghost", IndexSpec: IndexSpec{Equality: []string{"ghost"}}}}
	if _, err := NewShardedEngine(bad); err == nil {
		t.Error("invalid secondary spec accepted")
	}
	bad = base
	bad.Secondaries = []SecondaryIndexSpec{byReading, byReading}
	if _, err := NewShardedEngine(bad); err == nil {
		t.Error("duplicate secondary name accepted")
	}
	// Defaults: 4 shards of 4 partitions each.
	good := base
	good.Store = storage.NewMemStore(storage.LatencyModel{})
	s, err := NewShardedEngine(good)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 4 {
		t.Errorf("default shards = %d, want 4", s.NumShards())
	}
	for i, e := range s.shards {
		if e.partitions != 4 {
			t.Errorf("shard %d: %d partitions, want 4", i, e.partitions)
		}
	}
	if err := s.UpsertRows(row(1, 1, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	eq, sortv := key(1, 1)
	if _, found, err := tableGetOn(s, "", eq, sortv, QueryOptions{}); err != nil || !found {
		t.Fatalf("per-shard-store get: %v %v", err, found)
	}
}

// TestShardedSetCachedLevel checks that the table's purge control
// reaches every index of every shard (Figure 14): level -1 purges every
// persisted run from the SSD cache, and the maximum level loads them
// back.
func TestShardedSetCachedLevel(t *testing.T) {
	cache := storage.NewSSDCache(1<<20, storage.LatencyModel{})
	s := newTestShardedEngine(t, 2, func(c *ShardedConfig) {
		c.Cache = cache
		c.Secondaries = []SecondaryIndexSpec{{Name: "by_day", IndexSpec: IndexSpec{Equality: []string{"day"}}}}
	})
	for round := int64(0); round < 3; round++ {
		var rows []Row
		for dev := int64(0); dev < 8; dev++ {
			rows = append(rows, row(dev, round, float64(dev), 100+round))
		}
		if err := s.UpsertRows(rows...); err != nil {
			t.Fatal(err)
		}
		if err := s.Groom(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PostGroom(); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	cached := cache.Used()
	if cached == 0 {
		t.Fatal("no index run in the SSD cache before the purge")
	}

	s.SetCachedLevel(-1)
	for i, e := range s.shards {
		if n := len(e.indexSet()); n != 2 {
			t.Fatalf("shard %d has %d indexes, want 2", i, n)
		}
		for _, ti := range e.indexSet() {
			if got := ti.idx.CachedLevel(); got != -1 {
				t.Errorf("shard %d index %q: cached level %d after SetCachedLevel(-1)", i, ti.name, got)
			}
		}
	}
	purged := cache.Used()
	if purged >= cached {
		t.Fatalf("SSD cache holds %d bytes after purging all, %d before", purged, cached)
	}

	maxLevel := s.shards[0].idx.MaxLevel()
	s.SetCachedLevel(maxLevel)
	for i, e := range s.shards {
		for _, ti := range e.indexSet() {
			if got := ti.idx.CachedLevel(); got != maxLevel {
				t.Errorf("shard %d index %q: cached level %d, want %d", i, ti.name, got, maxLevel)
			}
		}
	}
	if loaded := cache.Used(); loaded <= purged {
		t.Errorf("SSD cache holds %d bytes after loading every level, %d purged", loaded, purged)
	}
}

// shardedWithDays is a 4-shard IoT table, newTestShardedEngine's config
// returned beside it for reopening, holding devices x msgs rows over
// three days, groomed once.
func shardedWithDays(t *testing.T, devices, msgs int64) (*ShardedEngine, ShardedConfig) {
	t.Helper()
	var cfg ShardedConfig
	s := newTestShardedEngine(t, 4, func(c *ShardedConfig) { cfg = *c })
	for dev := int64(0); dev < devices; dev++ {
		for msg := int64(0); msg < msgs; msg++ {
			if err := s.UpsertRows(row(dev, msg, float64(dev*100+msg), msg%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	return s, cfg
}

// TestShardedCreateIndexConflictAfterPartialBuild: a CreateIndex that
// failed after one shard built the index leaves that shard's declaration
// in the table's index set. A second declaration under the same name
// must be refused before any shard builds it, the first one must still
// converge every shard, and the table must reopen. A CreateIndex whose
// catalog writes all failed after every shard published the index must
// be retryable: the retry persists the index, so it survives a reopen.
func TestShardedCreateIndexConflictAfterPartialBuild(t *testing.T) {
	fs := &failingStore{ObjectStore: storage.NewMemStore(storage.LatencyModel{}), substr: "/catalog/"}
	var cfg ShardedConfig
	s := newTestShardedEngine(t, 4, func(c *ShardedConfig) { c.Store = fs; cfg = *c })
	for dev := int64(0); dev < 8; dev++ {
		for msg := int64(0); msg < 6; msg++ {
			if err := s.UpsertRows(row(dev, msg, float64(dev*100+msg), msg%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	a := SecondaryIndexSpec{Name: "sec", IndexSpec: IndexSpec{Equality: []string{"msg"}}}
	b := SecondaryIndexSpec{Name: "sec", IndexSpec: IndexSpec{Equality: []string{"day"}}}
	if err := s.shards[0].createIndex(a); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(b); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("CreateIndex of a conflicting declaration: err = %v", err)
	}
	for i, e := range s.shards {
		if ti, err := e.lookupIndex("sec"); err == nil && !specEqual(ti.declared, a.IndexSpec) {
			t.Fatalf("shard %d holds the refused declaration %v", i, ti.declared)
		}
	}
	if err := s.CreateIndex(a); err != nil {
		t.Fatal(err)
	}
	for i, e := range s.shards {
		if ti, err := e.lookupIndex("sec"); err != nil || !specEqual(ti.declared, a.IndexSpec) {
			t.Fatalf("shard %d after CreateIndex: %v, %v", i, ti, err)
		}
	}
	// Every shard publishes byDay, then every catalog write fails.
	byDay := SecondaryIndexSpec{Name: "by_day", IndexSpec: IndexSpec{Equality: []string{"day"}}}
	fs.fail.Store(true)
	if err := s.CreateIndex(byDay); err == nil {
		t.Fatal("CreateIndex succeeded with every catalog write failing")
	}
	fs.fail.Store(false)
	if err := s.CreateIndex(byDay); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for i, e := range r.shards {
		for _, want := range []SecondaryIndexSpec{a, byDay} {
			if ti, err := e.lookupIndex(want.Name); err != nil || !specEqual(ti.declared, want.IndexSpec) {
				t.Fatalf("shard %d after reopen, index %q: %v, %v", i, want.Name, ti, err)
			}
		}
	}
}

// TestShardedReopenHealsPartialIndex: an index that only some shards
// built (a CreateIndex cut short by a crash) is rebuilt on the others
// when the table reopens, so a scattered query through it reads every
// shard.
func TestShardedReopenHealsPartialIndex(t *testing.T) {
	s, cfg := shardedWithDays(t, 8, 6)
	byDay := SecondaryIndexSpec{Name: "by_day", IndexSpec: IndexSpec{Equality: []string{"day"}}}
	if err := s.shards[2].createIndex(byDay); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, e := range r.shards {
		if ti, err := e.lookupIndex("by_day"); err != nil || !specEqual(ti.declared, byDay.IndexSpec) {
			t.Fatalf("shard %d after reopen: %v, %v", i, ti, err)
		}
	}
	if _, pinned := r.router.pin(r.shards[0].indexSet()[1], []keyenc.Value{keyenc.I64(1)}); pinned {
		t.Fatal("a by_day scan pinned; it must scatter")
	}
	rows := func(spec QuerySpec) [][]keyenc.Value {
		qr, err := r.RunQuery(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := drainCursor(qr.Cursor, nil)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(out, compareRow)
		return out
	}
	for day := int64(0); day < 3; day++ {
		filter := exec.Eq("day", keyenc.I64(day))
		via := rows(QuerySpec{Filter: filter, Via: "by_day", ViaSet: true})
		scan := rows(QuerySpec{Filter: filter, NoIndexSelection: true})
		same := slices.EqualFunc(via, scan, func(x, y []keyenc.Value) bool { return compareRow(x, y) == 0 })
		if len(via) != 16 || !same {
			t.Fatalf("day %d: via by_day %v, zone scan %v", day, via, scan)
		}
	}
}

// compareRow orders rows column by column.
func compareRow(x, y []keyenc.Value) int { return slices.CompareFunc(x, y, keyenc.Compare) }
