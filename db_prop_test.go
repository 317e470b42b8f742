package umzi_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"umzi"
	"umzi/internal/keyenc"
	"umzi/internal/wildfire"
)

// Property test: every Query() builder formulation — point get, primary
// index scan, secondary scan, index-only scan, aggregate, unordered row
// query — returns what an oracle that reads no index returns: a second
// engine's forced zone scan of the whole table, with every index scan
// answered client-side (filter on the scan's key range, order by the
// index key) and aggregates and unordered selections folded over it.
// 1-shard and 8-shard tables. The builder table and the oracle engine
// ingest the same row sequence (with key collisions, i.e. updates) into
// separate stores and groom in lockstep, so every query must see the
// same reconciled multi-version state.

// oracleRows is the oracle's reconciled table at MaxTS: the engine's
// forced zone scan (the executor with index selection off).
func oracleRows(t *testing.T, eng *wildfire.ShardedEngine) [][]umzi.Value {
	t.Helper()
	qr, err := eng.RunQuery(context.Background(), wildfire.QuerySpec{TS: umzi.MaxTS, NoIndexSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	defer qr.Close()
	var out [][]umzi.Value
	for qr.Cursor.Next() {
		out = append(out, qr.Cursor.Value())
	}
	if err := qr.Cursor.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleScan answers an ordered index scan client-side: the rows keep
// accepts, ordered by their encoded index key (key's columns) and cut
// to limit rows (0 = all).
func oracleScan(all [][]umzi.Value, keep func(row []umzi.Value) bool, key func(row []umzi.Value) []umzi.Value, limit int) [][]umzi.Value {
	var out [][]umzi.Value
	for _, row := range all {
		if keep(row) {
			out = append(out, row)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return bytes.Compare(keyenc.AppendComposite(nil, key(out[i])...), keyenc.AppendComposite(nil, key(out[j])...)) < 0
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// sortedRows sorts rows by their composite encoding, for comparing
// unordered results as multisets.
func sortedRows(rows [][]umzi.Value) [][]umzi.Value {
	sort.SliceStable(rows, func(i, j int) bool {
		return bytes.Compare(keyenc.AppendComposite(nil, rows[i]...), keyenc.AppendComposite(nil, rows[j]...)) < 0
	})
	return rows
}

// primaryKey and customerKey are the key columns of the two indexes:
// order_id, and by_customer's customer then its order_id uniquifier.
func primaryKey(row []umzi.Value) []umzi.Value  { return row[:1] }
func customerKey(row []umzi.Value) []umzi.Value { return []umzi.Value{row[1], row[0]} }

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

func rowsEqual(t *testing.T, what string, got, want [][]umzi.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: builder returned %d rows, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !valuesEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d: builder %v, oracle %v", what, i, got[i], want[i])
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
	// mid-stream so the data straddles all three zones. Each upsert
	// draws its customer afresh, so an update can move a row to another
	// by_customer key and leave a stale secondary entry behind.
	const keyspace, customers = 200, 12
	regionsOf := []string{"amer", "emea", "apac", "latam"}
	n := 400 + rng.Intn(200)
	for i := 0; i < n; i++ {
		id := int64(rng.Intn(keyspace))
		row := umzi.Row{
			umzi.I64(id),
			umzi.I64(int64(rng.Intn(customers))),
			umzi.F64(float64(rng.Intn(1000))),
			umzi.Str(regionsOf[rng.Intn(len(regionsOf))]),
		}
		if err := tbl.Upsert(ctx, row); err != nil {
			t.Fatal(err)
		}
		if err := oracle.UpsertRows(row); err != nil {
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

	// The reconciled table, for every oracle answer below.
	all := oracleRows(t, oracle)

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
		recs := oracleScan(all, func(r []umzi.Value) bool { return r[0].Int() == id }, primaryKey, 0)
		if found != (len(recs) == 1) {
			t.Fatalf("point get %d: builder found=%v, oracle %d records", id, found, len(recs))
		}
		if found && !valuesEqual(row, recs[0]) {
			t.Fatalf("point get %d: builder %v, oracle %v", id, row, recs[0])
		}
	}

	// Primary ordered range scans (with and without limit) vs the
	// oracle's rows in the range, in primary-key order.
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
		inRange := func(r []umzi.Value) bool { return r[0].Int() >= lo && r[0].Int() <= hi }
		want := oracleScan(all, inRange, primaryKey, limit)
		rowsEqual(t, fmt.Sprintf("range [%d,%d] limit %d", lo, hi, limit), got, want)
	}

	// Secondary scans via the forced index vs the oracle's rows of the
	// customer, in by_customer key order.
	for cust := int64(0); cust < customers; cust++ {
		got, err := tbl.Query().
			Where(umzi.Eq("customer", umzi.I64(cust))).
			Via("by_customer").
			At(umzi.MaxTS).
			All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleScan(all, func(r []umzi.Value) bool { return r[1].Int() == cust }, customerKey, 0)
		rowsEqual(t, fmt.Sprintf("secondary customer %d", cust), got, want)
	}

	// Covered (index-only) queries vs the same oracle rows in the index
	// layout: the secondary carries customer, order_id (uniquifier) and
	// amount.
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
		// Index layout: equality (customer), sort (order_id), included (amount).
		var want [][]umzi.Value
		for _, r := range oracleScan(all, func(r []umzi.Value) bool { return r[1].Int() == cust }, customerKey, 0) {
			want = append(want, []umzi.Value{r[1], r[0], r[2]})
		}
		n := 0
		for ; n < len(want); n++ {
			if n < len(got) && !valuesEqual(got[n], want[n]) {
				t.Fatalf("index-only customer %d row %d: builder %v, oracle %v", cust, n, got[n], want[n])
			}
		}
		if n != len(got) {
			t.Fatalf("index-only customer %d: builder %d rows, oracle %d", cust, len(got), n)
		}
	}

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
		for _, row := range all {
			amount := row[2].Float()
			if amount < minAmount {
				continue
			}
			region := string(row[3].Bytes())
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

	// Unordered row query vs a client-side filter+project. An unlimited
	// unordered result comes in its table's zone order, which the two
	// engines' block layouts need not share, so both sides are sorted by
	// their composite encoding and compared as multisets.
	sel, err := tbl.Query().
		Where(umzi.Lt("amount", umzi.F64(500))).
		Select("order_id", "amount").
		At(umzi.MaxTS).
		All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var wantSel [][]umzi.Value
	for _, row := range all {
		if row[2].Float() < 500 {
			wantSel = append(wantSel, []umzi.Value{row[0], row[2]})
		}
	}
	sel, wantSel = sortedRows(sel), sortedRows(wantSel)
	if len(sel) != len(wantSel) {
		t.Fatalf("row query: builder %d rows, fold %d", len(sel), len(wantSel))
	}
	for i := range sel {
		if !valuesEqual(sel[i], wantSel[i]) {
			t.Fatalf("row query row %d: builder %v, fold %v", i, sel[i], wantSel[i])
		}
	}
}
