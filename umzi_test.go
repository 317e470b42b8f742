package umzi_test

import (
	"context"
	"testing"
	"time"

	"umzi"
)

// TestPublicAPIIndexLifecycle drives the full index lifecycle through the
// public facade only: create, build, query at timestamps, merge, evolve,
// crash-recover via Open, and keep working.
func TestPublicAPIIndexLifecycle(t *testing.T) {
	store := umzi.NewMemStore(umzi.LatencyModel{})
	cfg := umzi.Config{
		Name: "pub",
		Def: umzi.IndexDef{
			Equality: []umzi.Column{{Name: "k", Kind: umzi.KindString}},
			Sort:     []umzi.Column{{Name: "seq", Kind: umzi.KindUint64}},
			Included: []umzi.Column{{Name: "v", Kind: umzi.KindInt64}},
		},
		Store: store,
		Cache: umzi.NewSSDCache(0, umzi.LatencyModel{}),
		K:     2,
	}
	ix, err := umzi.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	build := func(cycle uint64, zone umzi.ZoneID, val int64) []umzi.Entry {
		var entries []umzi.Entry
		for i := uint32(0); i < 20; i++ {
			e, err := ix.MakeEntry(
				[]umzi.Value{umzi.Str("stream-A")},
				[]umzi.Value{umzi.U64(uint64(i))},
				[]umzi.Value{umzi.I64(val)},
				umzi.MakeTS(cycle, i),
				umzi.RID{Zone: zone, Block: cycle, Offset: i},
			)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
		}
		return entries
	}
	for c := uint64(1); c <= 4; c++ {
		if err := ix.BuildRun(build(c, umzi.ZoneGroomed, int64(c)), umzi.BlockRange{Min: c, Max: c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Newest version wins; historical snapshot sees cycle 2.
	e, found, err := ix.PointLookup([]umzi.Value{umzi.Str("stream-A")}, []umzi.Value{umzi.U64(3)}, umzi.MaxTS)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	_, _, incl, err := ix.DecodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if incl[0].Int() != 4 {
		t.Fatalf("newest value = %d, want 4", incl[0].Int())
	}
	e, found, err = ix.PointLookup([]umzi.Value{umzi.Str("stream-A")}, []umzi.Value{umzi.U64(3)}, umzi.MakeTS(2, 1<<20))
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if e.BeginTS.GroomSeq() != 2 {
		t.Fatalf("snapshot version from cycle %d, want 2", e.BeginTS.GroomSeq())
	}

	// Evolve cycles 1-2 and scan across the zone boundary.
	if err := ix.Evolve(1, build(2, umzi.ZonePostGroomed, 2), umzi.BlockRange{Min: 1, Max: 2}); err != nil {
		t.Fatal(err)
	}
	matches, err := ix.RangeScan(umzi.ScanOptions{
		Equality: []umzi.Value{umzi.Str("stream-A")},
		SortLo:   []umzi.Value{umzi.U64(5)},
		SortHi:   []umzi.Value{umzi.U64(9)},
		TS:       umzi.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("scan returned %d, want 5", len(matches))
	}

	// Crash + recover through the facade.
	ix.Close()
	ix2, err := umzi.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got := ix2.MaxCoveredGroomedID(); got != 2 {
		t.Fatalf("recovered watermark = %d, want 2", got)
	}
	out, foundB, err := ix2.LookupBatch([]umzi.LookupKey{
		{Equality: []umzi.Value{umzi.Str("stream-A")}, Sort: []umzi.Value{umzi.U64(7)}},
		{Equality: []umzi.Value{umzi.Str("stream-B")}, Sort: []umzi.Value{umzi.U64(0)}},
	}, umzi.MaxTS)
	if err != nil {
		t.Fatal(err)
	}
	if !foundB[0] || foundB[1] {
		t.Fatalf("batch found = %v, want [true false]", foundB)
	}
	if out[0].BeginTS.GroomSeq() != 4 {
		t.Fatalf("batch version from cycle %d, want 4", out[0].BeginTS.GroomSeq())
	}
}

// TestPublicAPITableLifecycle drives a 1-shard table through the DB
// facade: transactions, manual pipeline steps, snapshot reads, grooming
// daemons.
func TestPublicAPITableLifecycle(t *testing.T) {
	ctx := context.Background()
	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(umzi.TableDef{
		Name: "pubtbl",
		Columns: []umzi.TableColumn{
			{Name: "id", Kind: umzi.KindInt64},
			{Name: "rev", Kind: umzi.KindInt64},
			{Name: "body", Kind: umzi.KindString},
		},
		PrimaryKey: []string{"id", "rev"},
		ShardKey:   []string{"id"},
	}, umzi.TableOptions{Index: umzi.IndexSpec{
		Equality: []string{"id"},
		Sort:     []string{"rev"},
		Included: []string{"body"},
	}})
	if err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for rev := int64(0); rev < 5; rev++ {
		if err := tx.Upsert("pubtbl", umzi.Row{umzi.I64(1), umzi.I64(rev), umzi.Str("draft")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}
	first := tbl.SnapshotTS()
	// Update one row, groom, post-groom, sync.
	if err := tbl.Upsert(ctx, umzi.Row{umzi.I64(1), umzi.I64(2), umzi.Str("final")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.PostGroom(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SyncIndex(); err != nil {
		t.Fatal(err)
	}

	key := umzi.And(umzi.Eq("id", umzi.I64(1)), umzi.Eq("rev", umzi.I64(2)))
	row, found, err := tbl.Query().Where(key).One(ctx)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if string(row[2].Bytes()) != "final" {
		t.Fatalf("body = %q, want final", row[2].Bytes())
	}
	// The first groom's snapshot still reads the replaced version.
	row, found, err = tbl.Query().Where(key).At(first).One(ctx)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if string(row[2].Bytes()) != "draft" {
		t.Fatalf("body at first snapshot = %q, want draft", row[2].Bytes())
	}

	// Background daemons keep it consistent.
	tbl.Start(time.Millisecond, 5*time.Millisecond)
	for i := int64(10); i < 30; i++ {
		if err := tbl.Upsert(ctx, umzi.Row{umzi.I64(2), umzi.I64(i), umzi.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, err := tbl.Query().Where(umzi.Eq("id", umzi.I64(2))).Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemons stalled: %d of 20 rows visible", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
