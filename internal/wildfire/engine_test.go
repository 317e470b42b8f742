package wildfire

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"umzi/internal/columnar"
	"umzi/internal/core"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// iotTable is the paper's motivating IoT example: deviceID as equality /
// sharding column, msg number as sort column, a reading payload, and the
// date as partition key for analytics (§2.1, §4.1).
func iotTable() TableDef {
	return TableDef{
		Name: "sensors",
		Columns: []columnar.Column{
			{Name: "device", Kind: keyenc.KindInt64},
			{Name: "msg", Kind: keyenc.KindInt64},
			{Name: "reading", Kind: keyenc.KindFloat64},
			{Name: "day", Kind: keyenc.KindInt64},
		},
		PrimaryKey:   []string{"device", "msg"},
		ShardKey:     []string{"device"},
		PartitionKey: "day",
	}
}

func iotIndex() IndexSpec {
	return IndexSpec{
		Equality: []string{"device"},
		Sort:     []string{"msg"},
		Included: []string{"reading"},
		HashBits: 6,
	}
}

func newTestEngine(t *testing.T, mutate func(*ShardedConfig)) *shard {
	t.Helper()
	cfg := ShardedConfig{
		Table: iotTable(),
		Index: iotIndex(),
		Store: storage.NewMemStore(storage.LatencyModel{}),
	}
	cfg.IndexTuning.K = 2
	cfg.IndexTuning.GroomedLevels = 3
	cfg.IndexTuning.PostGroomedLevels = 2
	cfg.IndexTuning.BlockSize = 1024
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.close() })
	return e
}

func row(device, msg int64, reading float64, day int64) Row {
	return Row{keyenc.I64(device), keyenc.I64(msg), keyenc.F64(reading), keyenc.I64(day)}
}

func key(device, msg int64) ([]keyenc.Value, []keyenc.Value) {
	return []keyenc.Value{keyenc.I64(device)}, []keyenc.Value{keyenc.I64(msg)}
}

func TestTableValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TableDef)
	}{
		{"no name", func(td *TableDef) { td.Name = "" }},
		{"no columns", func(td *TableDef) { td.Columns = nil }},
		{"no pk", func(td *TableDef) { td.PrimaryKey = nil }},
		{"pk not in table", func(td *TableDef) { td.PrimaryKey = []string{"ghost"} }},
		{"shard key outside pk", func(td *TableDef) { td.ShardKey = []string{"reading"} }},
		{"partition key missing", func(td *TableDef) { td.PartitionKey = "ghost" }},
		{"reserved column", func(td *TableDef) {
			td.Columns = append(td.Columns, columnar.Column{Name: "_sneaky", Kind: keyenc.KindInt64})
		}},
		{"duplicate column", func(td *TableDef) {
			td.Columns = append(td.Columns, columnar.Column{Name: "device", Kind: keyenc.KindInt64})
		}},
	}
	for _, c := range cases {
		td := iotTable()
		c.mutate(&td)
		if err := td.Validate(); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
	td := iotTable()
	if err := td.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestIndexSpecValidation(t *testing.T) {
	td := iotTable()
	cases := []struct {
		name string
		spec IndexSpec
	}{
		{"missing pk coverage", IndexSpec{Equality: []string{"device"}}},
		{"non-pk key column", IndexSpec{Equality: []string{"device"}, Sort: []string{"reading"}}},
		{"unknown column", IndexSpec{Equality: []string{"ghost"}, Sort: []string{"msg"}}},
		{"dup key column", IndexSpec{Equality: []string{"device"}, Sort: []string{"device", "msg"}}},
		{"included is key", IndexSpec{Equality: []string{"device"}, Sort: []string{"msg"}, Included: []string{"device"}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(td); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
	if err := iotIndex().Validate(td); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestIngestGroomGet(t *testing.T) {
	e := newTestEngine(t, nil)
	if err := e.upsert(row(1, 1, 20.5, 100), row(2, 1, 21.0, 100)); err != nil {
		t.Fatal(err)
	}
	if got := e.liveCount(); got != 2 {
		t.Fatalf("LiveCount = %d, want 2", got)
	}
	n, err := e.groomCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("groomed %d records, want 2", n)
	}
	if got := e.liveCount(); got != 0 {
		t.Fatalf("LiveCount after groom = %d, want 0", got)
	}
	eq, sortv := key(1, 1)
	rec, found, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec.Row[2].Float() != 20.5 {
		t.Errorf("reading = %v", rec.Row[2])
	}
	if rec.RID.Zone != types.ZoneGroomed {
		t.Errorf("RID zone = %v, want groomed", rec.RID.Zone)
	}
	if rec.EndTS != types.MaxTS {
		t.Errorf("open version endTS = %v, want MaxTS", rec.EndTS)
	}
	// Missing key.
	eq, sortv = key(9, 9)
	if _, found, _ := getOn(e, "", eq, sortv, QueryOptions{}); found {
		t.Error("found absent key")
	}
}

func TestUpsertIsUpdate(t *testing.T) {
	e := newTestEngine(t, nil)
	if err := e.upsert(row(1, 1, 20.0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	ts1 := e.lastGroomTS()
	if err := e.upsert(row(1, 1, 25.0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	eq, sortv := key(1, 1)
	rec, found, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec.Row[2].Float() != 25.0 {
		t.Errorf("newest reading = %v, want 25.0", rec.Row[2])
	}
	// Time travel to the first groom's snapshot.
	old, found, err := getOn(e, "", eq, sortv, QueryOptions{TS: ts1})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if old.Row[2].Float() != 20.0 {
		t.Errorf("snapshot reading = %v, want 20.0", old.Row[2])
	}
}

// TestLastWriterWinsByCommitSeq: commit sequences are assigned before
// the durable append, so two concurrent commits to one key can publish
// to the committed log out of commit order. Groom orders the log by
// commit sequence: the higher sequence wins (LWW, §2.1), and the
// groomed block's rows follow commitSeq.
func TestLastWriterWinsByCommitSeq(t *testing.T) {
	e := newTestEngine(t, nil)
	older, newer := row(1, 1, 10.0, 100), row(1, 1, 99.0, 100)
	lo, err := e.stageCommit([]Row{older})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := e.stageCommit([]Row{newer})
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Fatalf("commit sequences %d then %d, want increasing", lo, hi)
	}
	e.appendLog([]Row{newer}, hi, 0)
	e.appendLog([]Row{older}, lo, 0)
	if n, err := e.groomCount(); err != nil || n != 2 {
		t.Fatalf("groomed %d records (err %v), want 2", n, err)
	}

	eq, sortv := key(1, 1)
	rec, found, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec.Row[2].Float() != 99.0 {
		t.Errorf("LWW violated: reading = %v, want 99.0 (higher commit sequence)", rec.Row[2])
	}

	v := e.zone.Load()
	if len(v.pending) != 1 {
		t.Fatalf("pending blocks = %v, want one groomed block", v.pending)
	}
	blk, err := e.fetchBlock(context.Background(), groomedBlockName(e.table.Name, v.pending[0]))
	if err != nil {
		t.Fatal(err)
	}
	beginCol := len(e.table.Columns)
	if blk.NumRows() != 2 {
		t.Fatalf("block rows = %d, want 2", blk.NumRows())
	}
	if r0, r1 := blk.Value(0, 2).Float(), blk.Value(1, 2).Float(); r0 != 10.0 || r1 != 99.0 {
		t.Errorf("block readings = [%v %v], want [10 99] (commitSeq order)", r0, r1)
	}
	if b0, b1 := blk.Value(0, beginCol).Uint(), blk.Value(1, beginCol).Uint(); b0 >= b1 {
		t.Errorf("block beginTS = [%d %d], want increasing", b0, b1)
	}
}

// TestTxnLifecycle covers what a table's UpsertRows checks: a bad row
// anywhere in the batch commits nothing.
func TestTxnLifecycle(t *testing.T) {
	s := newTestShardedEngine(t, 1, nil)
	if err := s.UpsertRows(row(1, 1, 1.0, 1), Row{keyenc.I64(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.UpsertRows(row(1, 1, 1.0, 1), Row{keyenc.Str("x"), keyenc.I64(1), keyenc.F64(0), keyenc.I64(0)}); err == nil {
		t.Error("wrong kind accepted")
	}
	if s.LiveCount() != 0 {
		t.Errorf("LiveCount = %d, want 0 (rejected batches commit nothing)", s.LiveCount())
	}
	if err := s.UpsertRows(row(1, 1, 1.0, 1), row(1, 2, 1.0, 1)); err != nil {
		t.Fatal(err)
	}
	if s.LiveCount() != 2 {
		t.Errorf("LiveCount = %d, want 2", s.LiveCount())
	}
}

func TestLiveZoneReads(t *testing.T) {
	e := newTestEngine(t, nil)
	if err := e.upsert(row(1, 1, 10.0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	// Newer committed-but-ungroomed update.
	if err := e.upsert(row(1, 1, 20.0, 100)); err != nil {
		t.Fatal(err)
	}
	eq, sortv := key(1, 1)
	// Default read: groomed snapshot only.
	rec, _, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Row[2].Float() != 10.0 {
		t.Errorf("groomed-snapshot read = %v, want 10.0", rec.Row[2])
	}
	// Freshness read sees the live zone.
	rec, _, err = getOn(e, "", eq, sortv, QueryOptions{IncludeLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Row[2].Float() != 20.0 {
		t.Errorf("live read = %v, want 20.0", rec.Row[2])
	}
}

func TestScanAndIndexOnlyScan(t *testing.T) {
	e := newTestEngine(t, nil)
	for msg := int64(0); msg < 20; msg++ {
		if err := e.upsert(row(7, msg, float64(msg)/2, 100+msg%3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	eq := []keyenc.Value{keyenc.I64(7)}
	recs, err := scanOn(e, "", eq, []keyenc.Value{keyenc.I64(5)}, []keyenc.Value{keyenc.I64(14)}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("scan returned %d, want 10", len(recs))
	}
	for i, rec := range recs {
		if rec.Row[1].Int() != int64(5+i) {
			t.Errorf("scan[%d] msg = %v, want %d (ordered)", i, rec.Row[1], 5+i)
		}
	}
	// Index-only: reading comes from the included column, no block fetch.
	rows, err := indexOnlyOn(e, "", eq, []keyenc.Value{keyenc.I64(5)}, []keyenc.Value{keyenc.I64(14)}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("index-only scan returned %d, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != 7 || r[1].Int() != int64(5+i) || r[2].Float() != float64(5+i)/2 {
			t.Errorf("index-only row %d = %v", i, r)
		}
	}
}

func TestGetBatch(t *testing.T) {
	e := newTestEngine(t, nil)
	for msg := int64(0); msg < 10; msg++ {
		if err := e.upsert(row(1, msg, float64(msg), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	var keys []core.LookupKey
	for msg := int64(0); msg < 12; msg += 2 { // msgs 10 and beyond miss
		keys = append(keys, core.LookupKey{
			Equality: []keyenc.Value{keyenc.I64(1)},
			Sort:     []keyenc.Value{keyenc.I64(msg)},
		})
	}
	recs, found, err := e.getBatch(context.Background(), keys, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range []int64{0, 2, 4, 6, 8, 10} {
		wantFound := msg < 10
		if found[i] != wantFound {
			t.Fatalf("batch[%d] (msg %d): found=%v, want %v", i, msg, found[i], wantFound)
		}
		if found[i] && recs[i].Row[2].Float() != float64(msg) {
			t.Errorf("batch[%d]: reading %v, want %d", i, recs[i].Row[2], msg)
		}
	}
}

// TestEncodedFootprintSmallerThanPlain checks that the groomed and
// post-groomed blocks an engine writes occupy fewer bytes on the store
// than the plain layout of the same data.
func TestEncodedFootprintSmallerThanPlain(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	e := newTestEngine(t, func(cfg *ShardedConfig) { cfg.Store = store })
	for round := int64(0); round < 4; round++ {
		rows := make([]Row, 0, 500)
		for i := int64(0); i < 500; i++ {
			msg := round*500 + i
			rows = append(rows, row(msg%8, msg, float64(msg%97), 100+msg/250))
		}
		if err := e.upsert(rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
		}
	}
	enc, plain, blocks, err := blockStoreFootprint(store, "tbl/"+e.table.Name+"/")
	if err != nil {
		t.Fatal(err)
	}
	if enc >= plain {
		t.Errorf("encoded bytes %d not smaller than plain layout %d over %d blocks", enc, plain, blocks)
	}
}

// blockStoreFootprint sums the marshaled size of every groomed and
// post-groomed block under prefix against the plain layout of the same
// data.
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
			return 0, 0, 0, fmt.Errorf("block %s: %w", name, err)
		}
		enc += len(data)
		plain += blk.PlainSize()
		blocks++
	}
	if blocks == 0 {
		return 0, 0, 0, fmt.Errorf("no blocks under %s", prefix)
	}
	return enc, plain, blocks, nil
}
