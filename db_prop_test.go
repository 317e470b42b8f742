package umzi_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"umzi"
	"umzi/internal/wildfire"
)

// Property test: every Query() builder formulation — point get, primary
// index scan, secondary scan, index-only scan, aggregate, unordered row
// query — returns what an oracle that is not the planner returns: the
// record-level stream primitives (ScanStreamOn / IndexOnlyStreamOn) of
// a second engine, with aggregates and unordered selections folded
// client-side over a full scan. 1-shard and 8-shard tables. The builder
// table and the oracle engine ingest the same row sequence (with key
// collisions, i.e. updates) into separate stores and groom in lockstep,
// so every query must see the same reconciled multi-version state.

// oracleScan drains the oracle's record-level scan through an index.
func oracleScan(t *testing.T, eng *wildfire.ShardedEngine, index string, eq, lo, hi []umzi.Value, limit int) []wildfire.Record {
	t.Helper()
	cur, err := eng.ScanStreamOn(context.Background(), index, eq, lo, hi,
		wildfire.QueryOptions{TS: umzi.MaxTS, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var out []wildfire.Record
	for cur.Next() {
		out = append(out, cur.Value())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func propTableDef() umzi.TableDef {
	return umzi.TableDef{
		Name: "orders",
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

var propIndex = umzi.IndexSpec{Sort: []string{"order_id"}, Included: []string{"region"}}
var propSecondary = umzi.SecondaryIndexSpec{
	Name:      "by_customer",
	IndexSpec: umzi.IndexSpec{Equality: []string{"customer"}, Included: []string{"amount"}},
}

func valuesEqual(a, b []umzi.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			return false
		}
	}
	return true
}

func rowsEqualRecords(t *testing.T, what string, got [][]umzi.Value, want []wildfire.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: builder returned %d rows, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !valuesEqual(got[i], want[i].Row) {
			t.Fatalf("%s: row %d: builder %v, oracle %v", what, i, got[i], want[i].Row)
		}
	}
}

func TestBuilderStreamOracleEquivalence(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				testBuilderStreamOracleEquivalence(t, shards, seed)
			})
		}
	}
}

func testBuilderStreamOracleEquivalence(t *testing.T, shards int, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))

	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(propTableDef(), umzi.TableOptions{
		Shards:      shards,
		Index:       propIndex,
		Secondaries: []umzi.SecondaryIndexSpec{propSecondary},
	})
	if err != nil {
		t.Fatal(err)
	}

	oracle, err := wildfire.NewShardedEngine(wildfire.ShardedConfig{
		Table:       propTableDef(),
		Index:       propIndex,
		Secondaries: []umzi.SecondaryIndexSpec{propSecondary},
		Shards:      shards,
		Store:       umzi.NewMemStore(umzi.LatencyModel{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// Identical ingest with updates, lockstep grooming, one post-groom
	// mid-stream so the data straddles all three zones.
	const keyspace, customers = 200, 12
	regionsOf := []string{"amer", "emea", "apac", "latam"}
	n := 400 + rng.Intn(200)
	for i := 0; i < n; i++ {
		id := int64(rng.Intn(keyspace))
		row := umzi.Row{
			umzi.I64(id),
			umzi.I64(id % customers),
			umzi.F64(float64(rng.Intn(1000))),
			umzi.Str(regionsOf[rng.Intn(len(regionsOf))]),
		}
		if err := tbl.Upsert(ctx, row); err != nil {
			t.Fatal(err)
		}
		if err := oracle.UpsertRows(0, row); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(60) == 0 {
			if err := tbl.Groom(); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Groom(); err != nil {
				t.Fatal(err)
			}
		}
		if i == n/2 {
			if err := tbl.PostGroom(); err != nil {
				t.Fatal(err)
			}
			if err := oracle.PostGroom(); err != nil {
				t.Fatal(err)
			}
			if err := tbl.SyncIndex(); err != nil {
				t.Fatal(err)
			}
			if err := oracle.SyncIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Groom(); err != nil {
		t.Fatal(err)
	}

	// Point gets (hits and misses) vs a one-key scan.
	for trial := 0; trial < 30; trial++ {
		id := int64(rng.Intn(keyspace + 20))
		row, found, err := tbl.Query().
			Where(umzi.Eq("order_id", umzi.I64(id))).
			At(umzi.MaxTS).
			One(ctx)
		if err != nil {
			t.Fatal(err)
		}
		key := []umzi.Value{umzi.I64(id)}
		recs := oracleScan(t, oracle, "", nil, key, key, 0)
		if found != (len(recs) == 1) {
			t.Fatalf("point get %d: builder found=%v, oracle %d records", id, found, len(recs))
		}
		if found && !valuesEqual(row, recs[0].Row) {
			t.Fatalf("point get %d: builder %v, oracle %v", id, row, recs[0].Row)
		}
	}

	// Primary ordered range scans (with and without limit) vs the
	// primary's record stream.
	for trial := 0; trial < 15; trial++ {
		lo := int64(rng.Intn(keyspace))
		hi := lo + int64(rng.Intn(keyspace))
		limit := 0
		if trial%3 == 0 {
			limit = 1 + rng.Intn(20)
		}
		got, err := tbl.Query().
			Where(umzi.And(umzi.Ge("order_id", umzi.I64(lo)), umzi.Le("order_id", umzi.I64(hi)))).
			OrderBy("order_id").
			Limit(limit).
			At(umzi.MaxTS).
			All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleScan(t, oracle, "", nil, []umzi.Value{umzi.I64(lo)}, []umzi.Value{umzi.I64(hi)}, limit)
		rowsEqualRecords(t, fmt.Sprintf("range [%d,%d] limit %d", lo, hi, limit), got, want)
	}

	// Secondary scans via the forced index vs the secondary's record
	// stream.
	for cust := int64(0); cust < customers; cust++ {
		got, err := tbl.Query().
			Where(umzi.Eq("customer", umzi.I64(cust))).
			Via("by_customer").
			At(umzi.MaxTS).
			All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleScan(t, oracle, "by_customer", []umzi.Value{umzi.I64(cust)}, nil, nil, 0)
		rowsEqualRecords(t, fmt.Sprintf("secondary customer %d", cust), got, want)
	}

	// Covered (index-only) queries vs IndexOnlyStreamOn: the secondary
	// carries customer, order_id (uniquifier) and amount.
	for cust := int64(0); cust < customers; cust++ {
		got, err := tbl.Query().
			Where(umzi.Eq("customer", umzi.I64(cust))).
			Select("customer", "order_id", "amount").
			Via("by_customer").
			At(umzi.MaxTS).
			All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := oracle.IndexOnlyStreamOn(ctx, "by_customer", []umzi.Value{umzi.I64(cust)}, nil, nil,
			wildfire.QueryOptions{TS: umzi.MaxTS})
		if err != nil {
			t.Fatal(err)
		}
		// Index layout: equality (customer), sort (order_id), included (amount).
		n := 0
		for ; cur.Next(); n++ {
			if n < len(got) && !valuesEqual(got[n], cur.Value()) {
				t.Fatalf("index-only customer %d row %d: builder %v, oracle %v", cust, n, got[n], cur.Value())
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if n != len(got) {
			t.Fatalf("index-only customer %d: builder %d rows, oracle %d", cust, len(got), n)
		}
	}

	// The reconciled table, for the client-side folds below.
	all := oracleScan(t, oracle, "", nil, nil, nil, 0)

	// Aggregates vs a client-side fold: filtered GROUP BY, both
	// index-selected and forced zone scan.
	for trial := 0; trial < 6; trial++ {
		minAmount := float64(rng.Intn(900))
		q := tbl.Query().
			Where(umzi.Ge("amount", umzi.F64(minAmount))).
			GroupBy("region").
			Aggs(umzi.Agg{Func: umzi.AggCount}, umzi.Agg{Func: umzi.AggSum, Col: "amount"}, umzi.Agg{Func: umzi.AggMax, Col: "amount"}).
			At(umzi.MaxTS)
		if trial%2 == 1 {
			q = q.NoIndex()
		}
		got, err := q.All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		type acc struct {
			count    int64
			sum, max float64
		}
		groups := map[string]*acc{}
		for _, rec := range all {
			amount := rec.Row[2].Float()
			if amount < minAmount {
				continue
			}
			region := string(rec.Row[3].Bytes())
			g := groups[region]
			if g == nil {
				g = &acc{max: amount}
				groups[region] = g
			}
			g.count++
			g.sum += amount // integral amounts: exact in any order
			if amount > g.max {
				g.max = amount
			}
		}
		regions := make([]string, 0, len(groups))
		for r := range groups {
			regions = append(regions, r)
		}
		sort.Strings(regions)
		if len(got) != len(regions) {
			t.Fatalf("aggregate >= %v: builder %d groups, fold %d", minAmount, len(got), len(regions))
		}
		for i, r := range regions {
			g := groups[r]
			want := []umzi.Value{umzi.Str(r), umzi.I64(g.count), umzi.F64(g.sum), umzi.F64(g.max)}
			if !valuesEqual(got[i], want) {
				t.Fatalf("aggregate >= %v group %d: builder %v, fold %v", minAmount, i, got[i], want)
			}
		}
	}

	// Unordered row query vs a client-side filter+project. The primary
	// key is projected and the scan is in primary-key order, which is the
	// executor's deterministic (encoded-value) row order too.
	sel, err := tbl.Query().
		Where(umzi.Lt("amount", umzi.F64(500))).
		Select("order_id", "amount").
		At(umzi.MaxTS).
		All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var wantSel [][]umzi.Value
	for _, rec := range all {
		if rec.Row[2].Float() < 500 {
			wantSel = append(wantSel, []umzi.Value{rec.Row[0], rec.Row[2]})
		}
	}
	if len(sel) != len(wantSel) {
		t.Fatalf("row query: builder %d rows, fold %d", len(sel), len(wantSel))
	}
	for i := range sel {
		if !valuesEqual(sel[i], wantSel[i]) {
			t.Fatalf("row query row %d: builder %v, fold %v", i, sel[i], wantSel[i])
		}
	}
}
