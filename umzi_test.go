package umzi_test

import (
	"context"
	"testing"
	"time"

	"umzi"
)

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
