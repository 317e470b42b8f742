package core

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
)

func TestMergeReducesRunCount(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 8; c++ {
		groom(t, ix, m, c, recsSeq(40, 4, 0))
	}
	g0, _ := ix.RunCounts()
	if g0 != 8 {
		t.Fatalf("pre-merge run count = %d", g0)
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	g1, _ := ix.RunCounts()
	if g1 >= g0 {
		t.Fatalf("maintenance did not reduce run count: %d -> %d\n%s", g0, g1, fmtRuns(ix))
	}
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, fmtRuns(ix))
	}
	// Every key still visible with the correct newest version.
	for dev := int64(0); dev < 4; dev++ {
		for msg := int64(0); msg < 10; msg++ {
			checkLookup(t, ix, m, dev, msg, types.MaxTS)
		}
	}
	// Historical snapshots survive merges (multi-version merge keeps all
	// versions).
	for c := uint64(1); c <= 8; c++ {
		checkLookup(t, ix, m, 2, 3, types.MakeTS(c, 1<<20))
	}
}

func TestMergePolicyInactiveBound(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) { c.K = 3; c.GroomedLevels = 4 })
	for c := uint64(1); c <= 20; c++ {
		groom(t, ix, nil, c, recsSeq(10, 2, 0))
		if err := ix.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	// After quiescing, no level may hold K or more inactive runs
	// (except the top level, which only compacts at K).
	ix.groomed.mu.Lock()
	perLevel := map[int][]bool{} // level -> active flags
	for _, r := range ix.groomed.runsLocked() {
		perLevel[r.level()] = append(perLevel[r.level()], r.active)
	}
	ix.groomed.mu.Unlock()
	for lvl, flags := range perLevel {
		inactive := 0
		for _, a := range flags {
			if !a {
				inactive++
			}
		}
		if inactive >= ix.cfg.K && lvl != ix.cfg.GroomedLevels-1 {
			t.Errorf("level %d holds %d inactive runs (K=%d)\n%s", lvl, inactive, ix.cfg.K, fmtRuns(ix))
		}
	}
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergePreservesAllVersionsAndRIDs(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	// Key (0,0) is updated every cycle; all versions must survive merges.
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, m, c, []record{{device: 0, msg: 0, val: int64(c)}, {device: 1, msg: int64(c), val: 9}})
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for c := uint64(1); c <= 6; c++ {
		ts := types.MakeTS(c, 1<<20)
		checkLookup(t, ix, m, 0, 0, ts)
	}
}

// TestMergeMatchesKWayOracle: merging runs yields the stable sort of all
// their entries (newest run first), exact (key, beginTS) duplicates kept
// once from the newest run that has them.
func TestMergeMatchesKWayOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := newTestIndex(t, func(c *Config) { c.K = 100 }) // keep the level-0 runs apart
	for c := uint64(1); c <= 5; c++ {
		var entries []run.Entry
		for i := 0; i < 200; i++ {
			// Few keys and timestamps: versions and exact duplicates
			// collide across runs.
			e, err := ix.MakeEntry([]keyenc.Value{keyenc.I64(rng.Int63n(6))}, []keyenc.Value{keyenc.I64(rng.Int63n(8))},
				[]keyenc.Value{keyenc.I64(int64(c)*1000 + int64(i))}, types.TS(1+rng.Intn(6)),
				types.RID{Zone: types.ZoneGroomed, Block: c, Offset: uint32(i)})
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
		}
		if err := ix.BuildRun(entries, types.BlockRange{Min: c, Max: c}); err != nil {
			t.Fatal(err)
		}
	}
	refs, release := ix.groomed.snapshot() // newest first
	defer release()

	var want []run.Entry
	for _, ref := range refs {
		it := run.NewReader(ref.header, ix.source(ref)).Begin()
		for ; it.Valid(); it.Next() {
			e, err := it.Entry()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, e)
		}
		it.Close()
	}
	sort.SliceStable(want, func(i, j int) bool { return run.Compare(want[i], want[j]) < 0 })
	n := 0
	for i, e := range want {
		if i == 0 || run.Compare(want[n-1], e) != 0 {
			want[n] = e
			n++
		}
	}
	want = want[:n]

	b, err := run.NewBuilder(ix.rdef, run.Meta{Zone: types.ZoneGroomed, Level: 1, Blocks: types.BlockRange{Min: 1, Max: 5}}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.mergeInto(b, refs); err != nil {
		t.Fatal(err)
	}
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := run.OpenObject(data)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it := rd.Begin(); it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) || run.Compare(e, want[i]) != 0 || e.RID != want[i].RID || !bytes.Equal(e.Included, want[i].Included) {
			t.Fatalf("merged entry %d = %+v, oracle has %d entries", i, e, len(want))
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("merge produced %d entries, oracle %d", i, len(want))
	}
}

func TestTopLevelCompaction(t *testing.T) {
	// With one groomed level, everything compacts within level 0.
	ix := newTestIndex(t, func(c *Config) { c.GroomedLevels = 1; c.K = 2 })
	m := newModel()
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, m, c, recsSeq(12, 3, 0))
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	g, _ := ix.RunCounts()
	if g != 1 {
		t.Fatalf("single-level zone should compact to 1 run, got %d\n%s", g, fmtRuns(ix))
	}
	for dev := int64(0); dev < 3; dev++ {
		checkLookup(t, ix, m, dev, 2, types.MaxTS)
	}
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPostZoneMergeDeletesInputObjects(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	ix := newTestIndex(t, func(c *Config) { c.Store = store })
	m := newModel()
	for c := uint64(1); c <= 4; c++ {
		groom(t, ix, m, c, recsSeq(10, 2, 0))
		postGroom(t, ix, m, types.PSN(c), c, c)
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Merges == 0 {
		t.Fatal("no post-groomed merge ran")
	}
	names, err := store.List("t/z2/")
	if err != nil {
		t.Fatal(err)
	}
	_, p := ix.RunCounts()
	if len(names) != p {
		t.Errorf("storage holds %d post-groomed objects, list holds %d runs: %v", len(names), p, names)
	}
}

// TestGroomedMergesNeverPersisted checks §6.1 as a rule: every groomed
// run above level 0 lives in memory only, carries its level-0 ancestors,
// and producing it put nothing on shared storage.
func TestGroomedMergesNeverPersisted(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	ix := newTestIndex(t, func(c *Config) { c.Store = store })
	m := newModel()
	for c := uint64(1); c <= 8; c++ {
		groom(t, ix, m, c, recsSeq(10, 2, 0))
	}
	before := store.Stats().Snapshot()
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	after := store.Stats().Snapshot()
	if after.Writes != before.Writes || after.BytesWritten != before.BytesWritten {
		t.Errorf("groomed merges wrote %d objects / %d bytes to shared storage",
			after.Writes-before.Writes, after.BytesWritten-before.BytesWritten)
	}

	refs, release := ix.groomed.snapshot()
	defer release()
	merged := 0
	for _, r := range refs {
		if r.level() == 0 {
			continue
		}
		merged++
		if r.persisted() || r.mem == nil {
			t.Errorf("level-%d groomed run: persisted=%v, in memory=%v", r.level(), r.persisted(), r.mem != nil)
		}
		if len(r.header.Meta.Ancestors) == 0 {
			t.Error("merged groomed run has no recorded ancestors (§6.1)")
		}
		for _, a := range r.header.Meta.Ancestors {
			if !strings.Contains(a, "-L0-") {
				t.Errorf("ancestor %s is not a level-0 run", a)
			}
			if _, err := store.Size(a); err != nil {
				t.Errorf("ancestor %s missing from shared storage: %v", a, err)
			}
		}
	}
	if merged == 0 {
		t.Fatal("maintenance produced no merged groomed run")
	}
	// Queries still see everything.
	for dev := int64(0); dev < 2; dev++ {
		for msg := int64(0); msg < 5; msg++ {
			checkLookup(t, ix, m, dev, msg, types.MaxTS)
		}
	}
}

// TestGroomedAncestorsFollowTheirRun: shared storage holds exactly the
// live level-0 runs plus the ancestors of live merged runs — through
// multi-level merges — and evolve deletes the ancestors with the run.
func TestGroomedAncestorsFollowTheirRun(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	ix := newTestIndex(t, func(c *Config) {
		c.Store = store
		c.T = 1 // seal aggressively so level-1 runs stack up and push to level 2
	})
	m := newModel()
	for c := uint64(1); c <= 12; c++ {
		groom(t, ix, m, c, recsSeq(10, 2, 0))
		if err := ix.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	refs, release := ix.groomed.snapshot()
	expect := map[string]bool{}
	top := 0
	for _, r := range refs {
		top = max(top, r.level())
		if r.persisted() {
			expect[r.name] = true
		}
		for _, a := range r.header.Meta.Ancestors {
			expect[a] = true
		}
	}
	release()
	if top < 2 {
		t.Fatalf("no run reached groomed level 2 (top level %d)", top)
	}
	names, err := store.List("t/z1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 12 {
		t.Errorf("%d groomed objects on shared storage, want the 12 level-0 runs", len(names))
	}
	for _, n := range names {
		if !expect[n] {
			t.Errorf("orphan object in storage: %s", n)
		}
	}
	for n := range expect {
		if _, err := store.Size(n); err != nil {
			t.Errorf("expected object missing: %s", n)
		}
	}

	postGroom(t, ix, m, 1, 1, 12)
	if names, _ := store.List("t/z1/"); len(names) != 0 {
		t.Errorf("evolve left groomed objects behind: %v", names)
	}
}

func TestMaintainOnceIsIncremental(t *testing.T) {
	ix := newTestIndex(t, nil)
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, nil, c, recsSeq(10, 2, 0))
	}
	did, err := ix.MaintainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("expected pending merge work")
	}
	st := ix.Stats()
	if st.Merges != 1 {
		t.Fatalf("MaintainOnce performed %d merges, want 1", st.Merges)
	}
}

func TestMergedRunNameEncodesLevel(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	ix := newTestIndex(t, func(c *Config) { c.Store = store })
	m := newModel()
	for c := uint64(1); c <= 4; c++ {
		groom(t, ix, m, c, recsSeq(10, 2, 0))
		postGroom(t, ix, m, types.PSN(c), c, c)
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	names, _ := store.List("t/z2/")
	sawMerged := false
	for _, n := range names {
		if strings.Contains(n, "-L4-") {
			sawMerged = true
		}
	}
	if !sawMerged {
		t.Errorf("no merged-level object names found: %v", names)
	}
}

func TestQuiesceIdempotent(t *testing.T) {
	ix := newTestIndex(t, nil)
	for c := uint64(1); c <= 5; c++ {
		groom(t, ix, nil, c, recsSeq(10, 2, 0))
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	did, err := ix.MaintainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if did {
		t.Error("MaintainOnce found work immediately after Quiesce")
	}
}

func TestMergeDedupesEvolveDuplicates(t *testing.T) {
	// Two runs carrying an identical (key, beginTS) entry — the benign
	// duplicate of §5.4 — must merge into a single entry.
	ix := newTestIndex(t, func(c *Config) { c.PostGroomedLevels = 2; c.K = 2 })
	// The same version can only appear once per zone through the real
	// protocol; duplicates arise across zones transiently. Exercise the
	// merge dedupe directly with two runs holding the same (key, beginTS).
	e1, err := ix.MakeEntry([]keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(7)}, types.MakeTS(1, 0), types.RID{Zone: types.ZoneGroomed, Block: 1})
	if err != nil {
		t.Fatal(err)
	}
	e2 := e1 // identical key and beginTS, different RID (copied record)
	e2.RID = types.RID{Zone: types.ZoneGroomed, Block: 2}
	if err := ix.BuildRun([]run.Entry{e1}, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildRun([]run.Entry{e2}, types.BlockRange{Min: 2, Max: 2}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	got, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(1)},
		TS:       types.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("duplicate versions not reconciled: %d results", len(got))
	}
}
