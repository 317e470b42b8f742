package umzi_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"umzi"
	"umzi/internal/storage"
)

func ordersDef(name string) umzi.TableDef {
	return umzi.TableDef{
		Name: name,
		Columns: []umzi.TableColumn{
			{Name: "order_id", Kind: umzi.KindInt64},
			{Name: "customer", Kind: umzi.KindInt64},
			{Name: "amount", Kind: umzi.KindFloat64},
			{Name: "region", Kind: umzi.KindString},
		},
		PrimaryKey: []string{"order_id"},
		ShardKey:   []string{"order_id"},
	}
}

var regions = []string{"amer", "emea", "apac"}

func fillOrders(t *testing.T, tbl *umzi.Table, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		err := tbl.Upsert(ctx, umzi.Row{
			umzi.I64(int64(i)),
			umzi.I64(int64(i % 10)),
			umzi.F64(float64(i)),
			umzi.Str(regions[i%len(regions)]),
		})
		if err != nil {
			t.Fatal(err)
		}
		if (i+1)%64 == 0 {
			if err := tbl.Groom(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}
}

// TestDBQuerySurface drives the whole builder surface on 1-shard and
// 4-shard tables: point get, ordered scan, projection, aggregation,
// limit, Via, Scan destinations.
func TestDBQuerySurface(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "single", 4: "sharded"}[shards], func(t *testing.T) {
			ctx := context.Background()
			db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{
				Shards: shards,
				Index:  umzi.IndexSpec{Sort: []string{"order_id"}},
				Secondaries: []umzi.SecondaryIndexSpec{{
					Name:      "by_customer",
					IndexSpec: umzi.IndexSpec{Equality: []string{"customer"}, Included: []string{"amount"}},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			fillOrders(t, tbl, 500)

			// Point get: full primary key pinned.
			row, found, err := tbl.Query().Where(umzi.Eq("order_id", umzi.I64(123))).One(ctx)
			if err != nil || !found {
				t.Fatalf("point get: found=%v err=%v", found, err)
			}
			if row[2].Float() != 123 {
				t.Fatalf("point get amount = %v, want 123", row[2].Float())
			}

			// Ordered scan with bounds, projection and Scan destinations.
			rows, err := tbl.Query().
				Where(umzi.And(umzi.Ge("order_id", umzi.I64(100)), umzi.Le("order_id", umzi.I64(109)))).
				Select("order_id", "amount").
				OrderBy("order_id").
				Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for rows.Next() {
				var id int64
				var amount float64
				if err := rows.Scan(&id, &amount); err != nil {
					t.Fatal(err)
				}
				if float64(id) != amount {
					t.Fatalf("row %d has amount %v", id, amount)
				}
				got = append(got, id)
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			rows.Close()
			if len(got) != 10 || got[0] != 100 || got[9] != 109 {
				t.Fatalf("ordered scan ids = %v", got)
			}

			// Limit stops the stream early.
			all, err := tbl.Query().OrderBy("order_id").Limit(7).All(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 7 || all[6][0].Int() != 6 {
				t.Fatalf("limited scan = %d rows, last %v", len(all), all[len(all)-1])
			}

			// Aggregate with GROUP BY.
			agg, err := tbl.Query().
				Where(umzi.Lt("order_id", umzi.I64(300))).
				GroupBy("region").
				Aggs(umzi.Agg{Func: umzi.AggCount, As: "n"}, umzi.Agg{Func: umzi.AggSum, Col: "amount"}).
				All(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(agg) != len(regions) {
				t.Fatalf("aggregate groups = %d, want %d", len(agg), len(regions))
			}
			var n int64
			for _, g := range agg {
				n += g[1].Int()
			}
			if n != 300 {
				t.Fatalf("aggregate total count = %d, want 300", n)
			}

			// Count convenience.
			cnt, err := tbl.Query().Where(umzi.Eq("customer", umzi.I64(3))).Count(ctx)
			if err != nil || cnt != 50 {
				t.Fatalf("count = %d (err %v), want 50", cnt, err)
			}

			// Via forces the covered secondary; verified against the
			// executor path.
			viaRows, err := tbl.Query().
				Where(umzi.Eq("customer", umzi.I64(3))).
				Select("amount").
				Via("by_customer").
				All(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(viaRows)) != cnt {
				t.Fatalf("via secondary returned %d rows, want %d", len(viaRows), cnt)
			}
		})
	}
}

// TestDBRestart is the multi-table recovery story: OpenDB on an
// existing store must bring back every table from the persisted db
// catalog — shard counts, index sets and data — in one call.
func TestDBRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	open := func() *umzi.DB {
		store, err := umzi.NewFSStore(dir, umzi.LatencyModel{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	ctx := context.Background()

	db := open()
	orders, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{
		Shards: 3,
		Index:  umzi.IndexSpec{Sort: []string{"order_id"}},
		Secondaries: []umzi.SecondaryIndexSpec{{
			Name:      "by_customer",
			IndexSpec: umzi.IndexSpec{Equality: []string{"customer"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := db.CreateTable(umzi.TableDef{
		Name: "events",
		Columns: []umzi.TableColumn{
			{Name: "stream", Kind: umzi.KindInt64},
			{Name: "offset", Kind: umzi.KindInt64},
		},
		PrimaryKey: []string{"stream", "offset"},
		ShardKey:   []string{"stream"},
	}, umzi.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillOrders(t, orders, 200)
	for i := 0; i < 50; i++ {
		if err := events.Upsert(ctx, umzi.Row{umzi.I64(int64(i % 5)), umzi.I64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := events.Groom(); err != nil {
		t.Fatal(err)
	}
	if err := orders.PostGroom(); err != nil {
		t.Fatal(err)
	}
	if err := orders.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: no CreateTable calls — everything must come back from
	// the catalog.
	db2 := open()
	defer db2.Close()
	names := db2.Tables()
	if len(names) != 2 || names[0] != "orders" || names[1] != "events" {
		t.Fatalf("recovered tables = %v", names)
	}
	orders2, err := db2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if orders2.NumShards() != 3 {
		t.Fatalf("orders recovered with %d shards, want 3", orders2.NumShards())
	}
	ix := orders2.Indexes()
	if len(ix) != 1 || ix[0].Name != "by_customer" {
		t.Fatalf("orders recovered secondaries = %v", ix)
	}
	cnt, err := orders2.Query().Count(ctx)
	if err != nil || cnt != 200 {
		t.Fatalf("orders count after restart = %d (err %v), want 200", cnt, err)
	}
	row, found, err := orders2.Query().Where(umzi.Eq("order_id", umzi.I64(42))).One(ctx)
	if err != nil || !found || row[2].Float() != 42 {
		t.Fatalf("point get after restart: row=%v found=%v err=%v", row, found, err)
	}
	events2, err := db2.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	cnt, err = events2.Query().Where(umzi.Eq("stream", umzi.I64(2))).Count(ctx)
	if err != nil || cnt != 10 {
		t.Fatalf("events stream 2 count after restart = %d (err %v), want 10", cnt, err)
	}
}

// TestDBOldCatalogReplicasIgnored: stores written before a shard had
// one committed log carry a "Replicas" option in each table's catalog
// entry. It never changed which rows a query returns, so OpenDB reads
// and ignores it: the table opens with its rows and takes new ones.
func TestDBOldCatalogReplicasIgnored(t *testing.T) {
	ctx := context.Background()
	store := umzi.NewMemStore(umzi.LatencyModel{})
	db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fillOrders(t, orders, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the catalog as such a store held it: "Replicas" right
	// after "Shards" in the table's entry.
	const prefix = "db/catalog/"
	data, seq, ok, err := storage.LoadRecord(store, prefix, func(b []byte) ([]byte, error) { return b, nil })
	if err != nil || !ok {
		t.Fatalf("loading the catalog: ok=%v err=%v", ok, err)
	}
	old := strings.Replace(string(data), `"Shards":2,`, `"Shards":2,"Replicas":2,`, 1)
	if old == string(data) {
		t.Fatalf("catalog record has no \"Shards\":2 field: %s", data)
	}
	if _, err := storage.WriteRecord(store, prefix, seq+1, []byte(old)); err != nil {
		t.Fatal(err)
	}

	db2, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatalf("opening a catalog with Replicas: %v", err)
	}
	defer db2.Close()
	orders2, err := db2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if orders2.NumShards() != 2 {
		t.Fatalf("orders reopened with %d shards, want 2", orders2.NumShards())
	}
	if cnt, err := orders2.Query().Count(ctx); err != nil || cnt != 100 {
		t.Fatalf("count after reopen = %d (err %v), want 100", cnt, err)
	}
	if err := orders2.Upsert(ctx, umzi.Row{
		umzi.I64(9999), umzi.I64(0), umzi.F64(1), umzi.Str("amer"),
	}); err != nil {
		t.Fatalf("upsert after reopen: %v", err)
	}
	if err := orders2.Groom(); err != nil {
		t.Fatal(err)
	}
	if cnt, err := orders2.Query().Count(ctx); err != nil || cnt != 101 {
		t.Fatalf("count after the upsert = %d (err %v), want 101", cnt, err)
	}
}

// TestDBCreateTableInvalidWritesNothing: DDL that fails validation —
// a bad primary spec, a bad secondary, two secondaries sharing a name —
// must leave the store untouched, so a later valid CreateTable of the
// same name starts clean instead of adopting a half-created table.
func TestDBCreateTableInvalidWritesNothing(t *testing.T) {
	store := umzi.NewMemStore(umzi.LatencyModel{})
	db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	byCustomer := umzi.SecondaryIndexSpec{Name: "by_customer", IndexSpec: umzi.IndexSpec{Equality: []string{"customer"}}}
	byRegion := byCustomer
	byRegion.IndexSpec = umzi.IndexSpec{Equality: []string{"region"}}
	for name, opts := range map[string]umzi.TableOptions{
		"bad secondary": {Secondaries: []umzi.SecondaryIndexSpec{{
			Name: "by_nope", IndexSpec: umzi.IndexSpec{Sort: []string{"nope"}},
		}}},
		"bad primary":         {Index: umzi.IndexSpec{Sort: []string{"nope"}}},
		"duplicate secondary": {Shards: 2, Secondaries: []umzi.SecondaryIndexSpec{byCustomer, byRegion}},
	} {
		if _, err := db.CreateTable(ordersDef("orders"), opts); err == nil {
			t.Fatalf("%s: CreateTable succeeded", name)
		}
		if names, err := store.List(""); err != nil || len(names) != 0 {
			t.Fatalf("%s: failed CreateTable left %v on the store (err %v)", name, names, err)
		}
	}
	if _, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{}); err != nil {
		t.Fatalf("valid CreateTable after the failed ones: %v", err)
	}
}

// TestDBOneShardLayout pins what a 1-shard table looks like from
// outside, before and after a reopen: its objects live directly under
// "tbl/<name>/" with no shard segment, and every table-labeled metric
// carries exactly {table: <name>} — the layout stores written before
// tables were uniformly sharded have.
func TestDBOneShardLayout(t *testing.T) {
	ctx := context.Background()
	store := umzi.NewMemStore(umzi.LatencyModel{})
	check := func(db *umzi.DB, when string) {
		t.Helper()
		tbl, err := db.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		if tbl.NumShards() != 1 {
			t.Fatalf("%s: %d shards, want 1", when, tbl.NumShards())
		}
		if n, err := tbl.Query().Count(ctx); err != nil || n != 100 {
			t.Fatalf("%s: count = %d (err %v), want 100", when, n, err)
		}
		names, err := store.List("tbl/")
		if err != nil || len(names) == 0 {
			t.Fatalf("%s: listing tbl/: %v (err %v)", when, names, err)
		}
		for _, n := range names {
			if !strings.HasPrefix(n, "tbl/orders/") || strings.Contains(n, "shard-") {
				t.Fatalf("%s: object %q is not under tbl/orders/ without a shard segment", when, n)
			}
		}
		tableMetrics := 0
		for _, m := range db.Metrics().Metrics {
			table, ok := m.Labels["table"]
			if !ok {
				continue
			}
			tableMetrics++
			if table != "orders" {
				t.Fatalf("%s: metric %s labeled table=%q, want orders", when, m.Name, table)
			}
		}
		if tableMetrics == 0 {
			t.Fatalf("%s: no table-labeled metrics", when)
		}
	}

	db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{
		Secondaries: []umzi.SecondaryIndexSpec{{
			Name: "by_customer", IndexSpec: umzi.IndexSpec{Equality: []string{"customer"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fillOrders(t, tbl, 100)
	if err := tbl.PostGroom(); err != nil {
		t.Fatal(err)
	}
	check(db, "created")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "reopened")
}

// TestDBMultiTableTx stages rows into two tables in one transaction.
func TestDBMultiTableTx(t *testing.T) {
	ctx := context.Background()
	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, err := db.CreateTable(ordersDef("a"), umzi.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable(ordersDef("b"), umzi.TableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		row := umzi.Row{umzi.I64(int64(i)), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}
		if err := tx.Upsert("a", row); err != nil {
			t.Fatal(err)
		}
		if err := tx.Upsert("b", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*umzi.Table{a, b} {
		if err := tbl.Groom(); err != nil {
			t.Fatal(err)
		}
		cnt, err := tbl.Query().Count(ctx)
		if err != nil || cnt != 10 {
			t.Fatalf("table %s count = %d (err %v), want 10", tbl.Name(), cnt, err)
		}
	}
	// A cancelled context refuses the commit.
	tx2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Upsert("a", umzi.Row{umzi.I64(99), umzi.I64(0), umzi.F64(1), umzi.Str("amer")}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := tx2.Commit(cancelled); err == nil {
		t.Fatal("commit with cancelled context succeeded")
	}
}

// TestDBCrashRecoveryDurability is the DB-layer durability story: a
// whole-process crash (the DB dropped without Close) after acknowledged
// upserts loses nothing on reopen — OpenDB recovers every table AND its
// un-groomed commit-log tail in one call, under the durability options
// persisted in the catalog.
func TestDBCrashRecoveryDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	open := func() *umzi.DB {
		store, err := umzi.NewFSStore(dir, umzi.LatencyModel{})
		if err != nil {
			t.Fatal(err)
		}
		// The CI durability tier (UMZI_FSYNC=1, -run Recovery) re-runs
		// this test against real fsync costs and ordering.
		if os.Getenv("UMZI_FSYNC") != "" {
			store.SetFsync(true)
		}
		db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	ctx := context.Background()

	db := open()
	orders, err := db.CreateTable(ordersDef("orders"), umzi.TableOptions{
		Shards:     3,
		Durability: umzi.DurabilityOptions{SyncPolicy: umzi.SyncPerCommit, SegmentBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 rows groomed, then 37 more acknowledged but never groomed.
	fillOrders(t, orders, 100)
	if err := orders.Groom(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 137; i++ {
		err := orders.Upsert(ctx, umzi.Row{
			umzi.I64(int64(i)), umzi.I64(int64(i % 10)), umzi.F64(float64(i)), umzi.Str(regions[i%len(regions)]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if orders.LiveCount() == 0 {
		t.Fatal("test expects an un-groomed tail")
	}
	// Crash: drop everything without Close.
	db, orders = nil, nil

	db2 := open()
	defer db2.Close()
	orders2, err := db2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := orders2.Durability(); got.SyncPolicy != umzi.SyncPerCommit || got.SegmentBytes != 4096 {
		t.Fatalf("durability options not recovered from the catalog: %+v", got)
	}
	if got := orders2.LiveCount(); got != 37 {
		t.Fatalf("replayed live tail = %d rows, want 37", got)
	}
	cnt, err := orders2.Query().At(umzi.MaxTS).IncludeLive().Count(ctx)
	if err != nil || cnt != 137 {
		t.Fatalf("count after crash recovery = %d (err %v), want 137", cnt, err)
	}
	// The tail grooms normally and the per-shard logs drain.
	if err := orders2.Groom(); err != nil {
		t.Fatal(err)
	}
	for shard, st := range orders2.WALStatus() {
		if st.Mark != st.MaxSeq {
			t.Fatalf("shard %d: mark %d != max seq %d after groom", shard, st.Mark, st.MaxSeq)
		}
		if st.Segments != 0 {
			t.Fatalf("shard %d: %d log segments survive a full groom", shard, st.Segments)
		}
	}
	cnt, err = orders2.Query().Count(ctx)
	if err != nil || cnt != 137 {
		t.Fatalf("groomed count after recovery = %d (err %v), want 137", cnt, err)
	}
}

// TestDBOversizedKeyAndIncluded: a 70,000-byte primary-key string and a
// 70,000-byte included column go through groom, post-groom, evolve, index
// merges and a reopen, and come back byte-identical. (Run entries used to
// store these lengths as u16: the run was written, the commit
// acknowledged, and the run could not be opened again.)
func TestDBOversizedKeyAndIncluded(t *testing.T) {
	ctx := context.Background()
	store := umzi.NewMemStore(umzi.LatencyModel{})
	db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	def := umzi.TableDef{
		Name: "docs",
		Columns: []umzi.TableColumn{
			{Name: "id", Kind: umzi.KindString},
			{Name: "rev", Kind: umzi.KindInt64},
			{Name: "body", Kind: umzi.KindString},
		},
		PrimaryKey: []string{"id", "rev"},
		ShardKey:   []string{"id"},
	}
	tbl, err := db.CreateTable(def, umzi.TableOptions{
		Index: umzi.IndexSpec{Equality: []string{"id"}, Sort: []string{"rev"}, Included: []string{"body"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bigID := strings.Repeat("k\x00", 35000)
	bigBody := strings.Repeat("body", 17500)
	want := map[string]string{bigID: bigBody}
	// Small neighbours on both sides, across enough grooms to merge.
	for i := 0; i < 8; i++ {
		id := string(rune('a'+i)) + "-doc"
		want[id] = id
		rows := []umzi.Row{{umzi.Str(id), umzi.I64(1), umzi.Str(id)}}
		if i == 3 {
			rows = append(rows, umzi.Row{umzi.Str(bigID), umzi.I64(1), umzi.Str(bigBody)})
		}
		if err := tbl.Upsert(ctx, rows...); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Groom(); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.MaintainOnce(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(tbl *umzi.Table, when string) {
		t.Helper()
		for id, body := range want {
			row, found, err := tbl.Query().Where(umzi.And(umzi.Eq("id", umzi.Str(id)), umzi.Eq("rev", umzi.I64(1)))).One(ctx)
			if err != nil || !found {
				t.Fatalf("%s: get %.8q…: found=%v err=%v", when, id, found, err)
			}
			if string(row[0].Bytes()) != id || string(row[2].Bytes()) != body {
				t.Fatalf("%s: get %.8q… returned a different row", when, id)
			}
		}
		// Index-only plan: the included column comes out of the run.
		rows, err := tbl.Query().Where(umzi.Eq("id", umzi.Str(bigID))).Select("rev", "body").OrderBy("rev").All(ctx)
		if err != nil || len(rows) != 1 || string(rows[0][1].Bytes()) != bigBody {
			t.Fatalf("%s: index-only read of the oversized row: %d rows, err %v", when, len(rows), err)
		}
	}
	check(tbl, "groomed")
	if err := tbl.PostGroom(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	for {
		did, err := tbl.MaintainOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	check(tbl, "evolved")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("docs")
	if err != nil {
		t.Fatal(err)
	}
	check(tbl2, "reopened")
}
