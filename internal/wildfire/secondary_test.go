package wildfire

import (
	"fmt"
	"math/rand"
	"testing"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/storage"
)

// ordersTable is the secondary-index test table: a point-lookup-friendly
// primary key plus low- and mid-cardinality non-key columns.
func ordersTestTable() TableDef {
	return TableDef{
		Name: "orders",
		Columns: []columnar.Column{
			{Name: "id", Kind: keyenc.KindInt64},
			{Name: "region", Kind: keyenc.KindString},
			{Name: "status", Kind: keyenc.KindInt64},
			{Name: "amount", Kind: keyenc.KindInt64},
		},
		PrimaryKey: []string{"id"},
		ShardKey:   []string{"id"},
	}
}

func ordersPrimary() IndexSpec {
	return IndexSpec{Equality: []string{"id"}, HashBits: 6}
}

func byRegion() SecondaryIndexSpec {
	return SecondaryIndexSpec{
		Name:      "by_region",
		IndexSpec: IndexSpec{Equality: []string{"region"}, Included: []string{"amount"}, HashBits: 4},
	}
}

func byStatusAmount() SecondaryIndexSpec {
	return SecondaryIndexSpec{
		Name:      "by_status_amount",
		IndexSpec: IndexSpec{Equality: []string{"status"}, Sort: []string{"amount"}, HashBits: 4},
	}
}

// ordersConfig is the orders table with both secondaries and a small
// merge fan-out, so a few grooms already build several runs.
func ordersConfig() ShardedConfig {
	cfg := ShardedConfig{
		Table:       ordersTestTable(),
		Index:       ordersPrimary(),
		Secondaries: []SecondaryIndexSpec{byRegion(), byStatusAmount()},
		Store:       storage.NewMemStore(storage.LatencyModel{}),
	}
	cfg.IndexTuning.K = 2
	cfg.IndexTuning.GroomedLevels = 3
	cfg.IndexTuning.PostGroomedLevels = 2
	cfg.IndexTuning.BlockSize = 1024
	return cfg
}

func newOrdersEngine(t *testing.T, mutate func(*ShardedConfig)) *shard {
	t.Helper()
	cfg := ordersConfig()
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

func orderRow(id int64, region string, status, amount int64) Row {
	return Row{keyenc.I64(id), keyenc.Str(region), keyenc.I64(status), keyenc.I64(amount)}
}

var testRegions = []string{"amer", "emea", "apac"}

// shadowOrders is the naive reference: primary key -> newest row.
type shadowOrders map[int64]Row

func (s shadowOrders) byRegion(region string) map[int64]Row {
	out := map[int64]Row{}
	for id, r := range s {
		if string(r[1].Bytes()) == region {
			out[id] = r
		}
	}
	return out
}

func (s shadowOrders) byStatusAmount(status, lo, hi int64) map[int64]Row {
	out := map[int64]Row{}
	for id, r := range s {
		if r[2].Int() == status && r[3].Int() >= lo && r[3].Int() <= hi {
			out[id] = r
		}
	}
	return out
}

func recordsToMap(t *testing.T, recs []Record) map[int64]Row {
	t.Helper()
	out := map[int64]Row{}
	for _, rec := range recs {
		id := rec.Row[0].Int()
		if _, dup := out[id]; dup {
			t.Fatalf("duplicate id %d in secondary scan result", id)
		}
		out[id] = rec.Row
	}
	return out
}

func sameRows(t *testing.T, what string, got, want map[int64]Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: missing id %d", what, id)
		}
		for c := range w {
			if keyenc.Compare(g[c], w[c]) != 0 {
				t.Fatalf("%s: id %d column %d = %v, want %v", what, id, c, g[c], w[c])
			}
		}
	}
}

// TestSecondaryStaleEntrySuppression is the core multi-version secondary
// semantics: updating a row's secondary-key column must remove it from
// queries on the old value at the current snapshot, while time-travel
// reads at an older snapshot still see it there.
func TestSecondaryStaleEntrySuppression(t *testing.T) {
	e := newOrdersEngine(t, nil)
	if err := e.upsert(orderRow(1, "amer", 0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	tsOld := e.lastGroomTS()
	if err := e.upsert(orderRow(1, "emea", 1, 150)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}

	stages := []struct {
		name string
		prep func() error
	}{
		{"groomed-only", func() error { return nil }},
		{"post-groomed", func() error {
			if _, err := e.postGroom(); err != nil {
				return err
			}
			return e.syncIndex()
		}},
	}
	for _, st := range stages {
		if err := st.prep(); err != nil {
			t.Fatal(err)
		}
		recs, err := scanOn(e, "by_region", []keyenc.Value{keyenc.Str("amer")}, nil, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("%s: region amer returned %d rows after the row moved to emea", st.name, len(recs))
		}
		recs, err = scanOn(e, "by_region", []keyenc.Value{keyenc.Str("emea")}, nil, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Row[3].Int() != 150 {
			t.Fatalf("%s: region emea = %v, want the updated row", st.name, recs)
		}
		// Time travel: at the old snapshot the row was still in amer.
		recs, err = scanOn(e, "by_region", []keyenc.Value{keyenc.Str("amer")}, nil, nil, QueryOptions{TS: tsOld})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Row[3].Int() != 100 {
			t.Fatalf("%s: region amer at old TS = %v, want the original row", st.name, recs)
		}
	}
}

// TestSecondaryPropertyVsNaive drives a random multi-version workload
// through every pipeline stage and cross-checks secondary point, range
// and covered queries against a scan-filter reference after each round.
func TestSecondaryPropertyVsNaive(t *testing.T) {
	e := newOrdersEngine(t, nil)
	rng := rand.New(rand.NewSource(42))
	shadow := shadowOrders{}

	verify := func(round int) {
		t.Helper()
		// Point/range queries on both secondaries against the reference.
		for _, region := range testRegions {
			eq := []keyenc.Value{keyenc.Str(region)}
			recs, err := scanOn(e, "by_region", eq, nil, nil, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("round %d region %s", round, region), recordsToMap(t, recs), shadow.byRegion(region))

			// Covered query: the by_region index carries region (eq), id
			// (pk uniquifier) and amount (included) — enough to answer
			// without touching a data block.
			rows, err := indexOnlyOn(e, "by_region", eq, nil, nil, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := shadow.byRegion(region)
			if len(rows) != len(want) {
				t.Fatalf("round %d covered region %s: %d rows, want %d", round, region, len(rows), len(want))
			}
			for _, row := range rows {
				// Layout: region (eq), id (sort uniquifier), amount (incl).
				id := row[1].Int()
				w, ok := want[id]
				if !ok {
					t.Fatalf("round %d covered region %s: unexpected id %d", round, region, id)
				}
				if row[2].Int() != w[3].Int() {
					t.Fatalf("round %d covered region %s id %d: amount %d, want %d", round, region, id, row[2].Int(), w[3].Int())
				}
			}
		}
		for status := int64(0); status < 3; status++ {
			lo, hi := int64(200), int64(700)
			recs, err := scanOn(e, "by_status_amount",
				[]keyenc.Value{keyenc.I64(status)},
				[]keyenc.Value{keyenc.I64(lo)}, []keyenc.Value{keyenc.I64(hi)}, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("round %d status %d", round, status), recordsToMap(t, recs), shadow.byStatusAmount(status, lo, hi))
		}
		// Point GetOn through the status index.
		for id, w := range shadow {
			if rng.Intn(8) != 0 {
				continue
			}
			rec, found, err := getOn(e, "by_status_amount",
				[]keyenc.Value{w[2]}, []keyenc.Value{w[3]}, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("round %d: GetOn(status=%d, amount=%d) found nothing (id %d expected)", round, w[2].Int(), w[3].Int(), id)
			}
			if rec.Row[2].Int() != w[2].Int() || rec.Row[3].Int() != w[3].Int() {
				t.Fatalf("round %d: GetOn returned %v, want status/amount %d/%d", round, rec.Row, w[2].Int(), w[3].Int())
			}
		}
		for _, ti := range e.indexSet() {
			if err := ti.idx.VerifyInvariants(); err != nil {
				t.Fatalf("round %d: index %q: %v", round, ti.name, err)
			}
		}
	}

	const rounds, keySpace = 12, 60
	for round := 0; round < rounds; round++ {
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			id := int64(rng.Intn(keySpace))
			r := orderRow(id, testRegions[rng.Intn(len(testRegions))], int64(rng.Intn(3)), int64(rng.Intn(1000)))
			if err := e.upsert(r); err != nil {
				t.Fatal(err)
			}
			shadow[id] = r
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
		switch round % 3 {
		case 1:
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
			if err := e.syncIndex(); err != nil {
				t.Fatal(err)
			}
		case 2:
			for _, ti := range e.indexSet() {
				if _, err := ti.idx.MaintainOnce(); err != nil {
					t.Fatal(err)
				}
			}
		}
		verify(round)
	}
}

// TestCreateIndexBackfill builds secondaries online after the table
// already holds data in every zone and checks they answer like the
// pipeline-maintained ones.
func TestCreateIndexBackfill(t *testing.T) {
	e := newOrdersEngine(t, func(cfg *ShardedConfig) { cfg.Secondaries = nil })
	rng := rand.New(rand.NewSource(7))
	shadow := shadowOrders{}
	for round := 0; round < 6; round++ {
		for i := 0; i < 30; i++ {
			id := int64(rng.Intn(50))
			r := orderRow(id, testRegions[rng.Intn(len(testRegions))], int64(rng.Intn(3)), int64(rng.Intn(1000)))
			if err := e.upsert(r); err != nil {
				t.Fatal(err)
			}
			shadow[id] = r
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
		if round == 2 {
			// Leave rounds 3..5 pending so the backfill covers both the
			// post-groomed and the groomed zone.
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
			if err := e.syncIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := e.createIndex(byRegion()); err != nil {
		t.Fatal(err)
	}
	// Identical redeclaration is idempotent (sharded retry path); a
	// conflicting one is rejected.
	if err := e.createIndex(byRegion()); err != nil {
		t.Fatalf("idempotent CreateIndex failed: %v", err)
	}
	if specs := e.secondarySpecs(); len(specs) != 1 {
		t.Fatalf("idempotent CreateIndex duplicated the index: %v", specs)
	}
	conflict := byRegion()
	conflict.Equality = []string{"status"}
	if err := e.createIndex(conflict); err == nil {
		t.Fatal("conflicting CreateIndex succeeded")
	}
	for _, region := range testRegions {
		recs, err := scanOn(e, "by_region", []keyenc.Value{keyenc.Str(region)}, nil, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "backfilled "+region, recordsToMap(t, recs), shadow.byRegion(region))
	}

	// The new index must be maintained from here on.
	if err := e.upsert(orderRow(999, "amer", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	shadow[999] = orderRow(999, "amer", 0, 1)
	recs, err := scanOn(e, "by_region", []keyenc.Value{keyenc.Str("amer")}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-create groom", recordsToMap(t, recs), shadow.byRegion("amer"))
}

// TestSecondaryRecovery restores the full index set — declared and
// online-created secondaries — from shared storage alone.
func TestSecondaryRecovery(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{
		Table:       ordersTestTable(),
		Index:       ordersPrimary(),
		Secondaries: []SecondaryIndexSpec{byRegion()},
		Store:       store,
	}
	cfg.IndexTuning.BlockSize = 1024
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	shadow := shadowOrders{}
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			id := int64(rng.Intn(40))
			r := orderRow(id, testRegions[rng.Intn(len(testRegions))], int64(rng.Intn(3)), int64(rng.Intn(1000)))
			if err := e.upsert(r); err != nil {
				t.Fatal(err)
			}
			shadow[id] = r
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(40)
	ingest(40)
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	// Online-created second secondary, then more groomed-but-not-post-
	// groomed data so recovery sees every zone populated.
	if err := e.createIndex(byStatusAmount()); err != nil {
		t.Fatal(err)
	}
	ingest(40)
	if err := e.close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT declaring any secondary: the catalog restores both.
	cfg2 := cfg
	cfg2.Secondaries = nil
	e, err = openShard(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	specs := e.secondarySpecs()
	if len(specs) != 2 || specs[0].Name != "by_region" || specs[1].Name != "by_status_amount" {
		t.Fatalf("recovered secondaries = %v", specs)
	}
	for _, region := range testRegions {
		recs, err := scanOn(e, "by_region", []keyenc.Value{keyenc.Str(region)}, nil, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "recovered "+region, recordsToMap(t, recs), shadow.byRegion(region))
	}
	for status := int64(0); status < 3; status++ {
		recs, err := scanOn(e, "by_status_amount", []keyenc.Value{keyenc.I64(status)}, nil, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "recovered status", recordsToMap(t, recs), shadow.byStatusAmount(status, 0, 1<<31))
	}
	for _, ti := range e.indexSet() {
		if err := ti.idx.VerifyInvariants(); err != nil {
			t.Fatalf("index %q after recovery: %v", ti.name, err)
		}
	}

	// A conflicting redeclaration must be rejected.
	bad := cfg
	bad.Secondaries = []SecondaryIndexSpec{{
		Name:      "by_region",
		IndexSpec: IndexSpec{Equality: []string{"status"}},
	}}
	if _, err := openShard(bad); err == nil {
		t.Fatal("conflicting secondary spec accepted on recovery")
	}
}

// TestRecoveryAfterFullReclamation pins the groom clock across a
// quiescent restart: when every groomed block has been consumed and
// deleted, the block listing alone says nothing about the clock, and a
// reset would let new grooms reuse block IDs and beginTS ranges below
// already-post-groomed versions — updates would silently lose
// newest-version reconciliation.
func TestRecoveryAfterFullReclamation(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{
		Table: ordersTestTable(),
		Index: ordersPrimary(),
		Store: store,
	}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := e.upsert(orderRow(i, "amer", 0, i)); err != nil {
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
		t.Fatal(err) // every groomed block is now consumed and reclaimed
	}
	oldCycle := e.groomCycle.Load()
	if err := e.close(); err != nil {
		t.Fatal(err)
	}

	e, err = openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if got := e.groomCycle.Load(); got < oldCycle {
		t.Fatalf("groom clock ran backwards across recovery: %d < %d", got, oldCycle)
	}
	if err := e.upsert(orderRow(5, "emea", 1, 9999)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	rec, found, err := getOn(e, "", []keyenc.Value{keyenc.I64(5)}, nil, QueryOptions{})
	if err != nil || !found {
		t.Fatalf("Get(5) after regroom: found=%v err=%v", found, err)
	}
	if rec.Row[3].Int() != 9999 {
		t.Fatalf("Get(5) = amount %d, want the post-restart update (9999)", rec.Row[3].Int())
	}
}

// TestSecondaryLimitedScanWidens pins the over-fetch/resume behavior of
// limited secondary scans: when stale entries outnumber the over-fetch
// window (4x the limit), the scan must walk on and still find the
// matching rows instead of returning short — resuming after the
// window's last key, so no candidate is back-checked twice and no row
// is emitted twice. One shard, and four shards whose windows run dry
// independently under the merge.
func TestSecondaryLimitedScanWidens(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := ordersConfig()
			cfg.Shards = shards
			s, err := NewShardedEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// 40 ids in amer and 40 in apac.
			for i := int64(0); i < 40; i++ {
				if err := s.UpsertRows(orderRow(i, "amer", 0, i), orderRow(100+i, "apac", 0, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Groom(); err != nil {
				t.Fatal(err)
			}
			// Move amer ids 0..35 and apac ids 101..135 to emea: their
			// old entries are now stale. In amer the stale entries sort
			// before the four ids still there; in apac id 100 still
			// leads them, so a row is emitted before the window runs dry.
			for i := int64(0); i < 36; i++ {
				rows := []Row{orderRow(i, "emea", 1, i)}
				if i > 0 {
					rows = append(rows, orderRow(100+i, "emea", 1, i))
				}
				if err := s.UpsertRows(rows...); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Groom(); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				region string
				limit  int
				want   []int64
			}{
				{"amer", 2, []int64{36, 37}},
				{"amer", 4, []int64{36, 37, 38, 39}},
				{"apac", 2, []int64{100, 136}},
				{"apac", 3, []int64{100, 136, 137}},
			} {
				tr := obs.NewQueryTrace()
				recs, err := tableScanOnLimit(s, "by_region", []keyenc.Value{keyenc.Str(c.region)}, nil, nil, QueryOptions{Trace: tr}, c.limit)
				if err != nil {
					t.Fatal(err)
				}
				var got []int64
				for _, r := range recs {
					got = append(got, r.Row[0].Int())
				}
				if fmt.Sprint(got) != fmt.Sprint(c.want) {
					t.Fatalf("%s limit %d after heavy staleness = %v, want ids %v", c.region, c.limit, got, c.want)
				}
				// 40 raw entries carry the region at the snapshot; each is
				// back-checked at most once.
				if n := tr.Snapshot().BackChecked; n > 40 {
					t.Fatalf("%s limit %d: %d back-checks over 40 candidates", c.region, c.limit, n)
				}
			}
			rec, found, err := tableGetOn(s, "by_region", []keyenc.Value{keyenc.Str("amer")}, nil, QueryOptions{})
			if err != nil || !found || rec.Row[0].Int() != 36 {
				t.Fatalf("GetOn after heavy staleness: found=%v rec=%v err=%v, want id 36", found, rec.Row, err)
			}
		})
	}
}

// TestSecondaryBackCheckBatched pins the batched verifier: an unlimited
// secondary scan back-checks its candidates with one primary
// LookupBatch per verifyCheckEvery of them, not one lookup each.
func TestSecondaryBackCheckBatched(t *testing.T) {
	e := newOrdersEngine(t, nil)
	const n = 2*verifyCheckEvery + 17
	for i := int64(0); i < n; i++ {
		if err := e.upsert(orderRow(i, "amer", 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	before := e.idx.Stats().Queries
	recs, err := scanOn(e, "by_region", []keyenc.Value{keyenc.Str("amer")}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("scan returned %d rows, want %d", len(recs), n)
	}
	want := int64((n + verifyCheckEvery - 1) / verifyCheckEvery)
	if got := e.idx.Stats().Queries - before; got != want {
		t.Fatalf("primary index queries = %d for %d candidates, want %d (one batch per %d)", got, n, want, verifyCheckEvery)
	}
}

// TestSecondarySpecValidation exercises the declaration rules.
func TestSecondarySpecValidation(t *testing.T) {
	tbl := ordersTestTable()
	cases := []struct {
		name string
		spec SecondaryIndexSpec
	}{
		{"empty name", SecondaryIndexSpec{IndexSpec: IndexSpec{Equality: []string{"region"}}}},
		{"slash in name", SecondaryIndexSpec{Name: "a/b", IndexSpec: IndexSpec{Equality: []string{"region"}}}},
		{"no key columns", SecondaryIndexSpec{Name: "x", IndexSpec: IndexSpec{Included: []string{"region"}}}},
		{"unknown column", SecondaryIndexSpec{Name: "x", IndexSpec: IndexSpec{Equality: []string{"ghost"}}}},
		{"duplicate column", SecondaryIndexSpec{Name: "x", IndexSpec: IndexSpec{Equality: []string{"region"}, Sort: []string{"region"}}}},
		{"pk as included", SecondaryIndexSpec{Name: "x", IndexSpec: IndexSpec{Equality: []string{"region"}, Included: []string{"id"}}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(tbl); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
	ok := SecondaryIndexSpec{Name: "ok", IndexSpec: IndexSpec{Equality: []string{"region"}, Sort: []string{"amount"}, Included: []string{"status"}}}
	if err := ok.Validate(tbl); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestExecuteIndexSelection checks the executor's access-path rule: an
// index-served plan must produce exactly the zone-scan result, covered
// or not, with updates shadowing correctly and live records unioned in.
func TestExecuteIndexSelection(t *testing.T) {
	e := newOrdersEngine(t, nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		r := orderRow(int64(i), testRegions[rng.Intn(len(testRegions))], int64(rng.Intn(3)), int64(rng.Intn(1000)))
		if err := e.upsert(r); err != nil {
			t.Fatal(err)
		}
		if i%60 == 59 {
			if _, err := e.groomCount(); err != nil {
				t.Fatal(err)
			}
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
	// Move a few rows across regions, and leave some live records.
	for i := 0; i < 20; i++ {
		if err := e.upsert(orderRow(int64(i), "apac", 2, 5000+int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(orderRow(500, "apac", 2, 9999)); err != nil {
		t.Fatal(err) // stays live
	}

	plans := []exec.Plan{
		// Covered aggregate through by_region (region, id, amount).
		{Filter: exec.Eq("region", keyenc.Str("apac")),
			Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "amount"}}},
		// Non-covered row query through by_region (projects status).
		{Filter: exec.Eq("region", keyenc.Str("emea")),
			Columns: []string{"id", "status", "amount"}},
		// Range through by_status_amount: status pinned, amount bounded.
		{Filter: exec.And(exec.Eq("status", keyenc.I64(2)), exec.Ge("amount", keyenc.I64(400)), exec.Lt("amount", keyenc.I64(900))),
			Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Min, Col: "amount"}, {Func: exec.Max, Col: "amount"}}},
		// Disjunction: must fall back to the scan on both sides.
		{Filter: exec.Or(exec.Eq("region", keyenc.Str("amer")), exec.Eq("status", keyenc.I64(1))),
			Aggs: []exec.Agg{{Func: exec.Count}}},
	}
	for _, includeLive := range []bool{false, true} {
		for pi, p := range plans {
			got, err := execute(e, p, QueryOptions{IncludeLive: includeLive})
			if err != nil {
				t.Fatal(err)
			}
			want, err := execute(e, p, QueryOptions{IncludeLive: includeLive, NoIndexSelection: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("plan %d live=%v: %d rows via index, %d via scan", pi, includeLive, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				for c := range want.Rows[i] {
					if keyenc.Compare(got.Rows[i][c], want.Rows[i][c]) != 0 {
						t.Fatalf("plan %d live=%v row %d col %d: index %v vs scan %v", pi, includeLive, i, c, got.Rows[i][c], want.Rows[i][c])
					}
				}
			}
		}
	}
}

// TestExecuteIndexPlanTooBroadFallsBack drives the candidate-cap guard:
// an equality value behind more candidates than indexPlanCandidateCap
// must revert to the zone scan and still produce the right answer.
func TestExecuteIndexPlanTooBroadFallsBack(t *testing.T) {
	e := newOrdersEngine(t, nil)
	n := int64(indexPlanCandidateCap + 500)
	for i := int64(0); i < n; i++ {
		if err := e.upsert(orderRow(i, "amer", 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	p := exec.Plan{
		Filter: exec.Eq("region", keyenc.Str("amer")),
		Aggs:   []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "amount"}},
	}
	res, err := execute(e, p, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != n || res.Rows[0][1].Int() != n*(n-1)/2 {
		t.Fatalf("broad plan = %v, want count %d sum %d", res.Rows[0], n, n*(n-1)/2)
	}
}

// TestShardedSecondaryQueries checks scatter + merge and pinned routing
// of secondary queries across shards, and sharded Execute parity.
func TestShardedSecondaryQueries(t *testing.T) {
	cfg := ShardedConfig{
		Table:       ordersTestTable(),
		Index:       ordersPrimary(),
		Secondaries: []SecondaryIndexSpec{byRegion(), byStatusAmount()},
		Shards:      4,
		Store:       storage.NewMemStore(storage.LatencyModel{}),
	}
	cfg.IndexTuning.BlockSize = 1024
	s, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(21))
	shadow := shadowOrders{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 120; i++ {
			id := int64(rng.Intn(300))
			r := orderRow(id, testRegions[rng.Intn(len(testRegions))], int64(rng.Intn(3)), int64(rng.Intn(1000)))
			if err := s.UpsertRows(r); err != nil {
				t.Fatal(err)
			}
			shadow[id] = r
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

	for _, region := range testRegions {
		recs, err := tableScanOn(s, "by_region", []keyenc.Value{keyenc.Str(region)}, nil, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "sharded "+region, recordsToMap(t, recs), shadow.byRegion(region))
		// Ordered by effective key (region pinned, then id): verify ids
		// ascend, which also exercises the k-way merge.
		for i := 1; i < len(recs); i++ {
			if recs[i].Row[0].Int() <= recs[i-1].Row[0].Int() {
				t.Fatalf("sharded %s: merge order broken at %d", region, i)
			}
		}
		// Limit pushdown through the merge.
		limited, err := tableScanOnLimit(s, "by_region", []keyenc.Value{keyenc.Str(region)}, nil, nil, QueryOptions{}, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := len(recs)
		if wantLen > 5 {
			wantLen = 5
		}
		if len(limited) != wantLen {
			t.Fatalf("sharded %s limit: %d rows, want %d", region, len(limited), wantLen)
		}
		for i := range limited {
			if limited[i].Row[0].Int() != recs[i].Row[0].Int() {
				t.Fatalf("sharded %s limit: row %d differs from unlimited prefix", region, i)
			}
		}
	}

	// Covered index-only scatter scan.
	rows, err := tableIndexOnlyOn(s, "by_region", []keyenc.Value{keyenc.Str("amer")}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := shadow.byRegion("amer")
	if len(rows) != len(want) {
		t.Fatalf("sharded covered: %d rows, want %d", len(rows), len(want))
	}

	// Sharded Execute with index selection vs forced scan.
	p := exec.Plan{
		Filter:  exec.Eq("region", keyenc.Str("emea")),
		GroupBy: []string{"status"},
		Aggs:    []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "amount"}},
	}
	got, err := tableExecute(s, p, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := tableExecute(s, p, QueryOptions{NoIndexSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(wantRes.Rows) {
		t.Fatalf("sharded execute: %d groups via index, %d via scan", len(got.Rows), len(wantRes.Rows))
	}
	for i := range wantRes.Rows {
		for c := range wantRes.Rows[i] {
			if keyenc.Compare(got.Rows[i][c], wantRes.Rows[i][c]) != 0 {
				t.Fatalf("sharded execute row %d col %d: %v vs %v", i, c, got.Rows[i][c], wantRes.Rows[i][c])
			}
		}
	}

	// Online CreateIndex across shards, pinnable by the sharding key.
	byID := SecondaryIndexSpec{
		Name:      "by_id_amount",
		IndexSpec: IndexSpec{Equality: []string{"id"}, Sort: []string{"amount"}},
	}
	if err := s.CreateIndex(byID); err != nil {
		t.Fatal(err)
	}
	ti, err := s.shards[0].lookupIndex("by_id_amount")
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range shadow {
		if rng.Intn(20) != 0 {
			continue
		}
		if _, ok := s.router.pin(ti, []keyenc.Value{keyenc.I64(id)}); !ok {
			t.Fatal("by_id_amount query did not pin despite the sharding key being bound")
		}
		rec, found, err := tableGetOn(s, "by_id_amount", []keyenc.Value{keyenc.I64(id)}, nil, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !found || rec.Row[3].Int() != w[3].Int() {
			t.Fatalf("pinned GetOn(id=%d): found=%v row=%v, want amount %d", id, found, rec.Row, w[3].Int())
		}
	}
}
