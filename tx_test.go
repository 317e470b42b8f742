package umzi_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/server"
)

// The Tx tests run over both transports: the DB's own Begin, and a
// client.DB's Begin through an in-process server over the same DB.
// They state one difference. In process, Upsert validates each row
// against its table; remotely, the server validates at Commit, so a
// malformed row fails the whole commit there and nothing commits.

type beginFunc func(context.Context) (*umzi.Tx, error)

// forEachTransport runs test once per transport over a fresh in-memory
// DB. Tables are created on the DB itself either way.
func forEachTransport(t *testing.T, test func(t *testing.T, db *umzi.DB, begin beginFunc, remote bool)) {
	for _, remote := range []bool{false, true} {
		name := "local"
		if remote {
			name = "remote"
		}
		t.Run(name, func(t *testing.T) {
			db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			begin := beginFunc(db.Begin)
			if remote {
				begin = serveBegin(t, db)
			}
			test(t, db, begin, remote)
		})
	}
}

// serveBegin serves db on a loopback port and returns the Begin of a
// client.DB connected to it; both stop when the test ends.
func serveBegin(t *testing.T, db *umzi.DB) beginFunc {
	t.Helper()
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	cdb, err := client.Open(client.Config{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdb.Close() })
	return cdb.Begin
}

// TestDBTxLifecycle covers Tx's staging rules: rows stay invisible
// until Commit, a finished transaction accepts nothing more, Abort
// discards its rows, and a malformed row fails at Upsert (remotely: at
// Commit, which then commits nothing).
func TestDBTxLifecycle(t *testing.T) {
	forEachTransport(t, func(t *testing.T, db *umzi.DB, begin beginFunc, remote bool) {
		ctx := context.Background()
		tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		order := func(id int64) umzi.Row {
			return umzi.Row{umzi.I64(id), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}
		}

		tx, err := begin(ctx)
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

		tx2, err := begin(ctx)
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

		for _, bad := range []struct {
			what string
			row  umzi.Row
		}{
			{"short row", umzi.Row{umzi.I64(1)}},
			{"wrong-kind row", umzi.Row{umzi.Str("x"), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}},
		} {
			tx3, err := begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			err = tx3.Upsert("orders", order(12), bad.row)
			if remote {
				if err != nil {
					t.Fatalf("%s: remote Upsert = %v, want nil (the server validates at Commit)", bad.what, err)
				}
				err = tx3.Commit(ctx)
			}
			if err == nil {
				t.Errorf("%s accepted", bad.what)
			}
			if n := tbl.LiveCount(); n != 8 {
				t.Errorf("%s: LiveCount = %d, want 8 (nothing committed)", bad.what, n)
			}
		}
	})
}

// TestDBTxCopiesRowsAtUpsert: a row the caller mutates after Upsert
// commits the value it had when staged.
func TestDBTxCopiesRowsAtUpsert(t *testing.T) {
	forEachTransport(t, func(t *testing.T, db *umzi.DB, begin beginFunc, remote bool) {
		ctx := context.Background()
		tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		row := umzi.Row{umzi.I64(1), umzi.I64(0), umzi.F64(1), umzi.Str("staged")}
		if err := tx.Upsert("orders", row); err != nil {
			t.Fatal(err)
		}
		row[3] = umzi.Str("mutated")
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		got, found, err := tbl.Query().Where(umzi.Eq("order_id", umzi.I64(1))).IncludeLive().One(ctx)
		if err != nil || !found {
			t.Fatalf("found=%v err=%v", found, err)
		}
		if region := string(got[3].Bytes()); region != "staged" {
			t.Errorf("committed region %q, want %q (the value at Upsert)", region, "staged")
		}
	})
}

// TestDBTxBeginCancelledContext: Begin refuses a context that is
// already done, with the context's error.
func TestDBTxBeginCancelledContext(t *testing.T) {
	forEachTransport(t, func(t *testing.T, db *umzi.DB, begin beginFunc, remote bool) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tx, err := begin(ctx)
		if !errors.Is(err, context.Canceled) || tx != nil {
			t.Errorf("Begin on a cancelled context = (%v, %v), want (nil, context.Canceled)", tx, err)
		}
	})
}

// TestDBTxUpsertStagesAllOrNone: a multi-row Upsert with one malformed
// row stages none of its rows, so a later Commit writes nothing. In
// process the Upsert fails and the Commit writes an empty transaction;
// remotely the Upsert stages both rows and the server refuses the
// Commit whole.
func TestDBTxUpsertStagesAllOrNone(t *testing.T) {
	forEachTransport(t, func(t *testing.T, db *umzi.DB, begin beginFunc, remote bool) {
		ctx := context.Background()
		tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		good := umzi.Row{umzi.I64(1), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}
		upsertErr := tx.Upsert("orders", good, umzi.Row{umzi.I64(2)})
		commitErr := tx.Commit(ctx)
		if remote {
			if upsertErr != nil || commitErr == nil {
				t.Fatalf("remote: Upsert = %v, Commit = %v; want nil, then an error", upsertErr, commitErr)
			}
		} else if upsertErr == nil || commitErr != nil {
			t.Fatalf("local: Upsert = %v, Commit = %v; want an error, then nil", upsertErr, commitErr)
		}
		n, err := tbl.Query().IncludeLive().Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("Count after Commit = %d, want 0 (the failed Upsert staged nothing)", n)
		}
	})
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
