package umzi_test

import (
	"context"
	"testing"

	"umzi"
)

// TestDBTxLifecycle covers umzi.Tx's staging rules: rows stay invisible
// until Commit, a finished transaction accepts nothing more, Abort
// discards its rows, and a malformed row fails at Upsert.
func TestDBTxLifecycle(t *testing.T) {
	ctx := context.Background()
	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	order := func(id int64) umzi.Row {
		return umzi.Row{umzi.I64(id), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}
	}

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 8; id++ {
		if err := tx.Upsert("orders", order(id)); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.LiveCount(); n != 0 {
		t.Errorf("LiveCount = %d before Commit, want 0", n)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if n := tbl.LiveCount(); n != 8 {
		t.Errorf("LiveCount = %d after Commit, want 8", n)
	}
	if err := tx.Commit(ctx); err == nil {
		t.Error("double commit accepted")
	}
	if err := tx.Upsert("orders", order(9)); err == nil {
		t.Error("upsert after commit accepted")
	}

	tx2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Upsert("orders", order(10)); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	if err := tx2.Upsert("orders", order(11)); err == nil {
		t.Error("upsert after abort accepted")
	}
	if err := tx2.Commit(ctx); err == nil {
		t.Error("commit after abort accepted")
	}
	if n := tbl.LiveCount(); n != 8 {
		t.Errorf("LiveCount = %d, want 8 (aborted rows discarded)", n)
	}

	tx3, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.Upsert("orders", umzi.Row{umzi.I64(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := tx3.Upsert("orders", umzi.Row{umzi.Str("x"), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}); err == nil {
		t.Error("wrong-kind row accepted")
	}
}

// TestDBTxBadReplicaCommitsNothing: a replica ordinal that one staged
// table lacks fails the whole commit before any table commits.
func TestDBTxBadReplicaCommitsNothing(t *testing.T) {
	ctx := context.Background()
	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, err := db.CreateTable(ordersDef("a"), umzi.TableOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable(ordersDef("b"), umzi.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	row := umzi.Row{umzi.I64(1), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}
	if err := tx.WithReplica(1).Upsert("a", row); err != nil {
		t.Fatal(err)
	}
	if err := tx.Upsert("b", row); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err == nil {
		t.Fatal("commit through a replica table b lacks succeeded")
	}
	if na, nb := a.LiveCount(), b.LiveCount(); na != 0 || nb != 0 {
		t.Errorf("LiveCount a=%d b=%d, want 0 and 0", na, nb)
	}
}

// TestDBTxUpsertStagesAllOrNone: a multi-row Upsert with one malformed
// row stages none of its rows, so a later Commit writes nothing.
func TestDBTxUpsertStagesAllOrNone(t *testing.T) {
	ctx := context.Background()
	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	good := umzi.Row{umzi.I64(1), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}
	if err := tx.Upsert("orders", good, umzi.Row{umzi.I64(2)}); err == nil {
		t.Fatal("upsert with a short row accepted")
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	n, err := tbl.Query().IncludeLive().Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("Count after Commit = %d, want 0 (the failed Upsert staged nothing)", n)
	}
}

// TestCommitAllocs budgets the allocations of a 100-row Table.Upsert
// (SyncOff, in-memory store, no background loops): staging copies each
// row once and the engine keeps the copy.
func TestCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	ctx := context.Background()
	rows := make([]umzi.Row, 100)
	for i := range rows {
		rows[i] = umzi.Row{umzi.I64(int64(i)), umzi.I64(int64(i % 10)), umzi.F64(float64(i)), umzi.Str(regions[i%len(regions)])}
	}
	for _, c := range []struct {
		shards int
		budget float64
	}{{1, 450}, {4, 490}} {
		db, err := umzi.OpenDB(umzi.DBConfig{
			Store:      umzi.NewMemStore(umzi.LatencyModel{}),
			Durability: umzi.DurabilityOptions{SyncPolicy: umzi.SyncOff},
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := tbl.Upsert(ctx, rows...); err != nil {
				t.Fatal(err)
			}
		})
		db.Close()
		if allocs > c.budget {
			t.Errorf("%d shards: %.0f allocations per 100-row Upsert, budget %.0f", c.shards, allocs, c.budget)
		}
		t.Logf("%d shards: %.0f allocations per 100-row Upsert", c.shards, allocs)
	}
}
