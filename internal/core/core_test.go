package core

import (
	"fmt"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// testDef is the I1-style definition used across the core tests: device is
// the equality column, msg the sort column, val an included column.
func testDef() IndexDef {
	return IndexDef{
		Equality: []Column{{"device", keyenc.KindInt64}},
		Sort:     []Column{{"msg", keyenc.KindInt64}},
		Included: []Column{{"val", keyenc.KindInt64}},
		HashBits: 6,
	}
}

// testConfig returns a small-levels config backed by a fresh MemStore.
func testConfig(name string) Config {
	return Config{
		Name:              name,
		Def:               testDef(),
		Store:             storage.NewMemStore(storage.LatencyModel{}),
		BlockSize:         1024,
		K:                 2,
		T:                 2,
		GroomedLevels:     3,
		PostGroomedLevels: 2,
	}
}

func newTestIndex(t *testing.T, mutate func(*Config)) *Index {
	t.Helper()
	cfg := testConfig("t")
	if mutate != nil {
		mutate(&cfg)
	}
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// record is the logical row the tests ingest.
type record struct {
	device, msg, val int64
	ts               types.TS
	rid              types.RID
}

// model tracks the expected index contents: key -> all versions.
type model struct {
	versions map[[2]int64][]record
}

func newModel() *model { return &model{versions: make(map[[2]int64][]record)} }

func (m *model) add(r record) {
	k := [2]int64{r.device, r.msg}
	m.versions[k] = append(m.versions[k], r)
}

// visible returns the newest version of (device,msg) with ts <= queryTS.
func (m *model) visible(device, msg int64, queryTS types.TS) (record, bool) {
	var best record
	found := false
	for _, r := range m.versions[[2]int64{device, msg}] {
		if r.ts <= queryTS && (!found || r.ts > best.ts) {
			best = r
			found = true
		}
	}
	return best, found
}

// visibleRange returns all newest-visible records for device with
// msgLo <= msg <= msgHi, ordered by msg.
func (m *model) visibleRange(device, msgLo, msgHi int64, queryTS types.TS) []record {
	var out []record
	for msg := msgLo; msg <= msgHi; msg++ {
		if r, ok := m.visible(device, msg, queryTS); ok {
			out = append(out, r)
		}
	}
	return out
}

// groom ingests one groom cycle: the records get beginTS from the cycle
// sequence and land in groomed block `cycle`, then an index run is built
// over that block (mirrors §5.2).
func groom(t *testing.T, ix *Index, m *model, cycle uint64, recs []record) {
	t.Helper()
	entries := make([]run.Entry, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		r.ts = types.MakeTS(cycle, uint32(i))
		r.rid = types.RID{Zone: types.ZoneGroomed, Block: cycle, Offset: uint32(i)}
		e, err := ix.MakeEntry(
			[]keyenc.Value{keyenc.I64(r.device)},
			[]keyenc.Value{keyenc.I64(r.msg)},
			[]keyenc.Value{keyenc.I64(r.val)},
			r.ts, r.rid,
		)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
		if m != nil {
			m.add(*r)
		}
	}
	if err := ix.BuildRun(entries, types.BlockRange{Min: cycle, Max: cycle}); err != nil {
		t.Fatal(err)
	}
}

// recsSeq builds n records: device = i % devices, msg = i / devices.
func recsSeq(n, devices int, base int64) []record {
	out := make([]record, n)
	for i := range out {
		out[i] = record{device: int64(i % devices), msg: base + int64(i/devices), val: int64(i)}
	}
	return out
}

// lookup asserts a point lookup against the model.
func checkLookup(t *testing.T, ix *Index, m *model, device, msg int64, ts types.TS) {
	t.Helper()
	e, found, err := ix.PointLookup(
		[]keyenc.Value{keyenc.I64(device)},
		[]keyenc.Value{keyenc.I64(msg)},
		ts,
	)
	if err != nil {
		t.Fatal(err)
	}
	want, wantFound := m.visible(device, msg, ts)
	if found != wantFound {
		t.Fatalf("lookup(%d,%d)@%v: found=%v, want %v", device, msg, ts, found, wantFound)
	}
	if !found {
		return
	}
	if e.BeginTS != want.ts {
		t.Fatalf("lookup(%d,%d)@%v: ts=%v, want %v", device, msg, ts, e.BeginTS, want.ts)
	}
	_, _, incl, err := ix.DecodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if incl[0].Int() != want.val {
		t.Fatalf("lookup(%d,%d)@%v: val=%d, want %d", device, msg, ts, incl[0].Int(), want.val)
	}
}

// checkScan asserts a range scan against the model, in key order.
func checkScan(t *testing.T, ix *Index, m *model, device, msgLo, msgHi int64, ts types.TS) {
	t.Helper()
	got, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(device)},
		SortLo:   []keyenc.Value{keyenc.I64(msgLo)},
		SortHi:   []keyenc.Value{keyenc.I64(msgHi)},
		TS:       ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := m.visibleRange(device, msgLo, msgHi, ts)
	if len(got) != len(want) {
		t.Fatalf("scan(dev=%d, %d..%d)@%v: %d results, want %d", device, msgLo, msgHi, ts, len(got), len(want))
	}
	for i, w := range want {
		e := got[i]
		_, sortv, _, err := ix.DecodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sortv[0].Int(); msg != w.msg {
			t.Fatalf("scan result %d: msg %d, want %d", i, msg, w.msg)
		}
		if e.BeginTS != w.ts || e.RID != w.rid {
			t.Fatalf("scan msg %d: (ts=%v, rid=%v), want (ts=%v, rid=%v)", w.msg, e.BeginTS, e.RID, w.ts, w.rid)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Name: "x", Store: storage.NewMemStore(storage.LatencyModel{})}); err == nil {
		t.Error("config without key columns accepted")
	}
	cfg := testConfig("dup")
	cfg.Def.Sort = append(cfg.Def.Sort, Column{"device", keyenc.KindInt64})
	if _, err := New(cfg); err == nil {
		t.Error("duplicate column accepted")
	}
}

// TestPersistedLevelsRule pins §6.1 as this repo applies it: level 0 and
// the post-groomed zone persist, merge outputs inside the groomed zone
// never do.
func TestPersistedLevelsRule(t *testing.T) {
	ix := newTestIndex(t, nil) // 3 groomed levels, 2 post-groomed
	for level, want := range []bool{true, false, false, true, true} {
		if got := ix.isPersistedLevel(level); got != want {
			t.Errorf("isPersistedLevel(%d) = %v, want %v", level, got, want)
		}
	}
}

func TestNewRefusesExistingStorage(t *testing.T) {
	cfg := testConfig("t")
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groom(t, ix, nil, 1, recsSeq(10, 2, 0))
	ix.Close()
	if _, err := New(cfg); err == nil {
		t.Error("New over existing storage must fail; Open is for recovery")
	}
}

func TestBuildAndPointLookup(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	groom(t, ix, m, 1, recsSeq(100, 10, 0))
	g, p := ix.RunCounts()
	if g != 1 || p != 0 {
		t.Fatalf("run counts = (%d,%d), want (1,0)", g, p)
	}
	for dev := int64(0); dev < 10; dev++ {
		checkLookup(t, ix, m, dev, 3, types.MaxTS)
	}
	// Absent keys.
	checkLookup(t, ix, m, 99, 0, types.MaxTS)
	checkLookup(t, ix, m, 0, 9999, types.MaxTS)
}

func TestEmptyBuildIsNoop(t *testing.T) {
	ix := newTestIndex(t, nil)
	if err := ix.BuildRun(nil, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	if g, _ := ix.RunCounts(); g != 0 {
		t.Error("empty build created a run")
	}
}

func TestMultiRunLookupNewestWins(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	// Same keys re-ingested across cycles: later cycles are updates.
	for c := uint64(1); c <= 5; c++ {
		groom(t, ix, m, c, recsSeq(50, 5, 0))
	}
	g, _ := ix.RunCounts()
	if g != 5 {
		t.Fatalf("run count = %d, want 5 (no maintenance yet)", g)
	}
	for dev := int64(0); dev < 5; dev++ {
		for msg := int64(0); msg < 10; msg++ {
			checkLookup(t, ix, m, dev, msg, types.MaxTS)
		}
	}
}

func TestSnapshotReads(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 4; c++ {
		groom(t, ix, m, c, recsSeq(30, 3, 0))
	}
	// Query at each historical groom boundary: must see exactly the
	// version from that cycle (snapshot isolation / time travel).
	for c := uint64(1); c <= 4; c++ {
		ts := types.MakeTS(c, 1<<20) // end of cycle c
		checkLookup(t, ix, m, 1, 2, ts)
		checkScan(t, ix, m, 1, 0, 9, ts)
	}
	// Before any data.
	checkLookup(t, ix, m, 1, 2, types.MakeTS(0, 0))
}

// TestRangeScanMatchesModel checks wide, narrow and pinned (point-like)
// ranges over overlapping runs against the model.
func TestRangeScanMatchesModel(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, m, c, recsSeq(60, 4, int64(c)))
	}
	for dev := int64(0); dev < 4; dev++ {
		checkScan(t, ix, m, dev, 0, 25, types.MaxTS)
		checkScan(t, ix, m, dev, 3, 7, types.MaxTS)
		checkScan(t, ix, m, dev, 5, 5, types.MaxTS)
	}
}

func TestRangeScanPQOrdered(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 3; c++ {
		groom(t, ix, m, c, recsSeq(90, 3, 0))
	}
	got, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(1)},
		TS:       types.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("open scan returned %d, want 30", len(got))
	}
	var prev int64 = -1
	for _, e := range got {
		_, sortv, _, err := ix.DecodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if sortv[0].Int() <= prev {
			t.Fatalf("PQ results not in key order: %d after %d", sortv[0].Int(), prev)
		}
		prev = sortv[0].Int()
	}
}

func TestRangeScanLimit(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(100, 2, 0))
	got, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(0)},
		TS:       types.MaxTS,
		Limit:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("limit scan returned %d, want 7", len(got))
	}
}

func TestRangeScanUnboundedSides(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	groom(t, ix, m, 1, recsSeq(40, 4, 0))
	// Only lower bound.
	got, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(2)},
		SortLo:   []keyenc.Value{keyenc.I64(5)},
		TS:       types.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 { // msgs 5..9
		t.Fatalf("lower-bounded scan returned %d, want 5", len(got))
	}
	// Only upper bound.
	got, err = ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(2)},
		SortHi:   []keyenc.Value{keyenc.I64(4)},
		TS:       types.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 { // msgs 0..4
		t.Fatalf("upper-bounded scan returned %d, want 5", len(got))
	}
}

func TestPointLookupRequiresFullKey(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(10, 2, 0))
	if _, _, err := ix.PointLookup([]keyenc.Value{keyenc.I64(0)}, nil, types.MaxTS); err == nil {
		t.Error("point lookup without sort values accepted")
	}
}

func TestLookupBatch(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 4; c++ {
		groom(t, ix, m, c, recsSeq(80, 8, 0))
	}
	var keys []LookupKey
	type want struct {
		dev, msg int64
	}
	var wants []want
	for dev := int64(0); dev < 8; dev++ {
		for msg := int64(0); msg < 10; msg += 3 {
			keys = append(keys, LookupKey{
				Equality: []keyenc.Value{keyenc.I64(dev)},
				Sort:     []keyenc.Value{keyenc.I64(msg)},
			})
			wants = append(wants, want{dev, msg})
		}
	}
	// Plus some misses.
	keys = append(keys, LookupKey{Equality: []keyenc.Value{keyenc.I64(42)}, Sort: []keyenc.Value{keyenc.I64(0)}})
	wants = append(wants, want{42, 0})

	out, found, err := ix.LookupBatch(keys, types.MaxTS)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range wants {
		wantRec, wantFound := m.visible(w.dev, w.msg, types.MaxTS)
		if found[i] != wantFound {
			t.Fatalf("batch[%d] (%d,%d): found=%v, want %v", i, w.dev, w.msg, found[i], wantFound)
		}
		if found[i] && out[i].BeginTS != wantRec.ts {
			t.Fatalf("batch[%d] (%d,%d): ts=%v, want %v", i, w.dev, w.msg, out[i].BeginTS, wantRec.ts)
		}
	}
}

func TestLookupBatchEmpty(t *testing.T) {
	ix := newTestIndex(t, nil)
	out, found, err := ix.LookupBatch(nil, types.MaxTS)
	if err != nil || len(out) != 0 || len(found) != 0 {
		t.Errorf("empty batch: %v %v %v", out, found, err)
	}
}

func TestSynopsisPruning(t *testing.T) {
	ix := newTestIndex(t, nil)
	// Two runs with disjoint device ranges.
	groom(t, ix, nil, 1, []record{{device: 1, msg: 1, val: 1}, {device: 2, msg: 1, val: 2}})
	groom(t, ix, nil, 2, []record{{device: 100, msg: 1, val: 3}, {device: 101, msg: 1, val: 4}})

	before := ix.Stats()
	if _, _, err := ix.PointLookup([]keyenc.Value{keyenc.I64(100)}, []keyenc.Value{keyenc.I64(1)}, types.MaxTS); err != nil {
		t.Fatal(err)
	}
	after := ix.Stats()
	if pruned := after.RunsPruned - before.RunsPruned; pruned != 1 {
		t.Errorf("pruned %d runs, want 1 (device 100 only in run 2)", pruned)
	}
	if searched := after.RunsSearched - before.RunsSearched; searched != 1 {
		t.Errorf("searched %d runs, want 1", searched)
	}
}

func TestSynopsisDisabled(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) { c.DisableSynopsis = true })
	groom(t, ix, nil, 1, []record{{device: 1, msg: 1}})
	groom(t, ix, nil, 2, []record{{device: 100, msg: 1}})
	before := ix.Stats()
	if _, _, err := ix.PointLookup([]keyenc.Value{keyenc.I64(100)}, []keyenc.Value{keyenc.I64(1)}, types.MaxTS); err != nil {
		t.Fatal(err)
	}
	after := ix.Stats()
	if pruned := after.RunsPruned - before.RunsPruned; pruned != 0 {
		t.Errorf("pruned %d runs with synopsis disabled", pruned)
	}
}

func TestDecodeEntryRoundTrip(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	groom(t, ix, m, 1, []record{{device: 7, msg: 9, val: 55}})
	e, found, err := ix.PointLookup([]keyenc.Value{keyenc.I64(7)}, []keyenc.Value{keyenc.I64(9)}, types.MaxTS)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	eq, sortv, incl, err := ix.DecodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if eq[0].Int() != 7 || sortv[0].Int() != 9 || incl[0].Int() != 55 {
		t.Errorf("decoded (%v,%v,%v)", eq, sortv, incl)
	}
}

func TestClosedIndexRejectsOps(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(4, 2, 0))
	ix.Close()
	if err := ix.BuildRun([]run.Entry{{}}, types.BlockRange{}); err == nil {
		t.Error("BuildRun after Close accepted")
	}
	if _, err := ix.RangeScan(ScanOptions{Equality: []keyenc.Value{keyenc.I64(0)}}); err == nil {
		t.Error("RangeScan after Close accepted")
	}
	if _, _, err := ix.PointLookup([]keyenc.Value{keyenc.I64(0)}, []keyenc.Value{keyenc.I64(0)}, 0); err == nil {
		t.Error("PointLookup after Close accepted")
	}
}

func TestVerifyInvariantsOnFreshIngest(t *testing.T) {
	ix := newTestIndex(t, nil)
	for c := uint64(1); c <= 10; c++ {
		groom(t, ix, nil, c, recsSeq(20, 4, 0))
	}
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPureHashIndex(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) {
		c.Def = IndexDef{
			Equality: []Column{{"k", keyenc.KindString}},
			HashBits: 6,
		}
	})
	e, err := ix.MakeEntry([]keyenc.Value{keyenc.Str("alpha")}, nil, nil, types.MakeTS(1, 0), types.RID{Zone: types.ZoneGroomed, Block: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildRun([]run.Entry{e}, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	got, found, err := ix.PointLookup([]keyenc.Value{keyenc.Str("alpha")}, nil, types.MaxTS)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if got.RID.Block != 1 {
		t.Errorf("RID = %v", got.RID)
	}
	if _, found, _ := ix.PointLookup([]keyenc.Value{keyenc.Str("beta")}, nil, types.MaxTS); found {
		t.Error("found absent key")
	}
}

func TestPureRangeIndex(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) {
		c.Def = IndexDef{
			Sort: []Column{{"seq", keyenc.KindInt64}},
		}
	})
	var entries []run.Entry
	for i := int64(0); i < 50; i++ {
		e, err := ix.MakeEntry(nil, []keyenc.Value{keyenc.I64(i)}, nil, types.MakeTS(1, uint32(i)), types.RID{Zone: types.ZoneGroomed, Block: 1, Offset: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if err := ix.BuildRun(entries, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := ix.RangeScan(ScanOptions{
		SortLo: []keyenc.Value{keyenc.I64(10)},
		SortHi: []keyenc.Value{keyenc.I64(19)},
		TS:     types.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("pure range scan returned %d, want 10", len(got))
	}
}

func TestStatsCounting(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(10, 2, 0))
	groom(t, ix, nil, 2, recsSeq(10, 2, 0))
	if _, _, err := ix.PointLookup([]keyenc.Value{keyenc.I64(0)}, []keyenc.Value{keyenc.I64(0)}, types.MaxTS); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Builds != 2 {
		t.Errorf("Builds = %d", st.Builds)
	}
	if st.Queries != 1 {
		t.Errorf("Queries = %d", st.Queries)
	}
	if st.RunsSearched == 0 || st.EntriesScanned == 0 {
		t.Errorf("stats not counting: %+v", st)
	}
}

func fmtRuns(ix *Index) string {
	var s string
	for _, z := range []*zoneList{ix.groomed, ix.post} {
		refs, release := z.snapshot()
		s += fmt.Sprintf("%v:", z.zone)
		for _, r := range refs {
			s += fmt.Sprintf(" L%d%v(%d)", r.level(), r.blocks(), r.entries())
			if r.active {
				s += "*"
			}
		}
		release()
		s += "\n"
	}
	return s
}

var _ = fmtRuns // debugging helper for failed maintenance tests

// TestIndexLifecycle drives one index through its whole lifecycle:
// create, build, query at timestamps, merge, evolve, crash-recover via
// Open, and keep working.
func TestIndexLifecycle(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := Config{
		Name: "pub",
		Def: IndexDef{
			Equality: []Column{{Name: "k", Kind: keyenc.KindString}},
			Sort:     []Column{{Name: "seq", Kind: keyenc.KindUint64}},
			Included: []Column{{Name: "v", Kind: keyenc.KindInt64}},
		},
		Store: store,
		Cache: storage.NewSSDCache(0, storage.LatencyModel{}),
		K:     2,
	}
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	build := func(cycle uint64, zone types.ZoneID, val int64) []run.Entry {
		var entries []run.Entry
		for i := uint32(0); i < 20; i++ {
			e, err := ix.MakeEntry(
				[]keyenc.Value{keyenc.Str("stream-A")},
				[]keyenc.Value{keyenc.U64(uint64(i))},
				[]keyenc.Value{keyenc.I64(val)},
				types.MakeTS(cycle, i),
				types.RID{Zone: zone, Block: cycle, Offset: i},
			)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
		}
		return entries
	}
	for c := uint64(1); c <= 4; c++ {
		if err := ix.BuildRun(build(c, types.ZoneGroomed, int64(c)), types.BlockRange{Min: c, Max: c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Newest version wins; historical snapshot sees cycle 2.
	e, found, err := ix.PointLookup([]keyenc.Value{keyenc.Str("stream-A")}, []keyenc.Value{keyenc.U64(3)}, types.MaxTS)
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
	e, found, err = ix.PointLookup([]keyenc.Value{keyenc.Str("stream-A")}, []keyenc.Value{keyenc.U64(3)}, types.MakeTS(2, 1<<20))
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if e.BeginTS.GroomSeq() != 2 {
		t.Fatalf("snapshot version from cycle %d, want 2", e.BeginTS.GroomSeq())
	}

	// Evolve cycles 1-2 and scan across the zone boundary.
	if err := ix.Evolve(1, build(2, types.ZonePostGroomed, 2), types.BlockRange{Min: 1, Max: 2}); err != nil {
		t.Fatal(err)
	}
	matches, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.Str("stream-A")},
		SortLo:   []keyenc.Value{keyenc.U64(5)},
		SortHi:   []keyenc.Value{keyenc.U64(9)},
		TS:       types.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("scan returned %d, want 5", len(matches))
	}

	// Crash + recover through the facade.
	ix.Close()
	ix2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got := ix2.MaxCoveredGroomedID(); got != 2 {
		t.Fatalf("recovered watermark = %d, want 2", got)
	}
	out, foundB, err := ix2.LookupBatch([]LookupKey{
		{Equality: []keyenc.Value{keyenc.Str("stream-A")}, Sort: []keyenc.Value{keyenc.U64(7)}},
		{Equality: []keyenc.Value{keyenc.Str("stream-B")}, Sort: []keyenc.Value{keyenc.U64(0)}},
	}, types.MaxTS)
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
