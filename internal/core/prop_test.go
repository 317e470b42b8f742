package core

import (
	"math/rand"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
)

// TestRandomizedWorkloadAgainstModel drives the index with a long random
// sequence of grooms, updates, merges, evolves and recoveries, checking
// every few steps that point lookups, range scans and batched lookups
// agree exactly with a simple in-memory model at randomly chosen snapshot
// timestamps. This is the repository's
// strongest single correctness check: it composes every maintenance
// operation with every query path under multi-version semantics.
func TestRandomizedWorkloadAgainstModel(t *testing.T) {
	seeds := []int64{1, 7, 1234}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run("", func(t *testing.T) { randomizedWorkload(t, seed) })
	}
}

func randomizedWorkload(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := testConfig("rw")
	cfg.K = 2 + rng.Intn(3)
	cfg.T = 2 + rng.Intn(3)
	cfg.GroomedLevels = 2 + rng.Intn(3)
	cfg.PostGroomedLevels = 1 + rng.Intn(2)
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()

	m := newModel()
	const devices, msgs = 5, 8
	cycle := uint64(0)
	psn := types.PSN(0)
	var groomTimes []types.TS // snapshot boundary per cycle

	groomRandom := func() {
		cycle++
		n := 1 + rng.Intn(3*devices)
		recs := make([]record, n)
		for i := range recs {
			recs[i] = record{
				device: int64(rng.Intn(devices)),
				msg:    int64(rng.Intn(msgs)),
				val:    rng.Int63n(1 << 30),
			}
		}
		groom(t, ix, m, cycle, recs)
		groomTimes = append(groomTimes, types.MakeTS(cycle, 1<<20))
	}

	evolveAll := func() {
		covered := ix.MaxCoveredGroomedID()
		if covered >= cycle {
			return
		}
		psn++
		postGroom(t, ix, m, psn, covered+1, cycle)
	}

	checkEverything := func() {
		ts := types.MaxTS
		if len(groomTimes) > 0 && rng.Intn(2) == 0 {
			ts = groomTimes[rng.Intn(len(groomTimes))]
		}
		// Point lookups across the whole key space.
		for dev := int64(0); dev < devices; dev++ {
			for msg := int64(0); msg < msgs; msg++ {
				checkLookup(t, ix, m, dev, msg, ts)
			}
		}
		// A range scan on a random device.
		checkScanValues(t, ix, m, int64(rng.Intn(devices)), ts)
		// A batched lookup mixing hits and misses.
		var keys []LookupKey
		type kk struct{ dev, msg int64 }
		var expect []kk
		for i := 0; i < 10; i++ {
			k := kk{int64(rng.Intn(devices + 1)), int64(rng.Intn(msgs + 2))}
			keys = append(keys, LookupKey{
				Equality: []keyenc.Value{keyenc.I64(k.dev)},
				Sort:     []keyenc.Value{keyenc.I64(k.msg)},
			})
			expect = append(expect, k)
		}
		out, found, err := ix.LookupBatch(keys, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range expect {
			want, wantFound := m.visible(k.dev, k.msg, ts)
			if found[i] != wantFound {
				t.Fatalf("seed batch (%d,%d)@%v: found=%v want %v", k.dev, k.msg, ts, found[i], wantFound)
			}
			if found[i] && out[i].BeginTS != want.ts {
				t.Fatalf("seed batch (%d,%d)@%v: ts=%v want %v", k.dev, k.msg, ts, out[i].BeginTS, want.ts)
			}
		}
	}

	for step := 0; step < 60; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			groomRandom()
		case r < 7:
			if _, err := ix.MaintainOnce(); err != nil {
				t.Fatal(err)
			}
		case r < 9:
			evolveAll()
		default:
			// Crash and recover mid-workload.
			old := ix
			ix2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			old.Close()
			ix = ix2
		}
		if step%7 == 0 {
			checkEverything()
			if err := ix.VerifyInvariants(); err != nil {
				t.Fatalf("step %d: %v\n%s", step, err, fmtRuns(ix))
			}
		}
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkEverything()
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// checkScanValues compares an unbounded per-device scan against the model
// (value-level comparison; RIDs may legitimately point at either zone for
// duplicated versions).
func checkScanValues(t *testing.T, ix *Index, m *model, device int64, ts types.TS) {
	t.Helper()
	got, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(device)},
		TS:       ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]record{}
	for key := range m.versions {
		if key[0] != device {
			continue
		}
		if r, ok := m.visible(key[0], key[1], ts); ok {
			want[key[1]] = r
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan dev %d @%v: %d results, want %d", device, ts, len(got), len(want))
	}
	for _, e := range got {
		_, sortv, incl, err := ix.DecodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[sortv[0].Int()]
		if !ok {
			t.Fatalf("scan dev %d: unexpected msg %d", device, sortv[0].Int())
		}
		if e.BeginTS != w.ts || incl[0].Int() != w.val {
			t.Fatalf("scan dev %d msg %d: (ts=%v val=%d), want (ts=%v val=%d)",
				device, sortv[0].Int(), e.BeginTS, incl[0].Int(), w.ts, w.val)
		}
	}
}

// TestLookupBatchPruning verifies the batch-level synopsis pruning of
// §8.3.2: a batch confined to one run's key range must skip the others.
func TestLookupBatchPruning(t *testing.T) {
	ix := newTestIndex(t, nil)
	// Three runs with disjoint device ranges.
	groom(t, ix, nil, 1, []record{{device: 1, msg: 1}, {device: 2, msg: 1}})
	groom(t, ix, nil, 2, []record{{device: 10, msg: 1}, {device: 11, msg: 1}})
	groom(t, ix, nil, 3, []record{{device: 20, msg: 1}, {device: 21, msg: 1}})

	before := ix.Stats()
	// Keys living in the OLDEST run: the two newer runs must both be
	// pruned by the batch bounds before the batch reaches it.
	keys := []LookupKey{
		{Equality: []keyenc.Value{keyenc.I64(1)}, Sort: []keyenc.Value{keyenc.I64(1)}},
		{Equality: []keyenc.Value{keyenc.I64(2)}, Sort: []keyenc.Value{keyenc.I64(1)}},
	}
	_, found, err := ix.LookupBatch(keys, types.MaxTS)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || !found[1] {
		t.Fatal("batch keys not found")
	}
	after := ix.Stats()
	if pruned := after.RunsPruned - before.RunsPruned; pruned != 2 {
		t.Errorf("batch pruned %d runs, want 2 (devices 1-2 live in run 1 only)", pruned)
	}
	if searched := after.RunsSearched - before.RunsSearched; searched != 1 {
		t.Errorf("batch searched %d runs, want 1", searched)
	}
}

// TestPointLookupPostGroomed verifies the zone-restricted lookup the
// post-groomer depends on.
func TestPointLookupPostGroomed(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	groom(t, ix, m, 1, []record{{device: 1, msg: 1, val: 10}})
	groom(t, ix, m, 2, []record{{device: 1, msg: 1, val: 20}})

	// Nothing post-groomed yet: the restricted lookup must miss even
	// though the key exists in the groomed zone.
	_, found, err := ix.PointLookupPostGroomed([]keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}, types.MaxTS)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("post-zone lookup found a groomed-only key")
	}

	// Evolve cycle 1 only: the restricted lookup sees version 1, the
	// unrestricted lookup still returns version 2 from the groomed zone.
	postGroom(t, ix, m, 1, 1, 1)
	e, found, err := ix.PointLookupPostGroomed([]keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}, types.MaxTS)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if e.RID.Zone != types.ZonePostGroomed {
		t.Errorf("restricted lookup returned zone %v", e.RID.Zone)
	}
	if e.BeginTS.GroomSeq() != 1 {
		t.Errorf("restricted lookup returned cycle-%d version, want 1", e.BeginTS.GroomSeq())
	}
	full, found, err := ix.PointLookup([]keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}, types.MaxTS)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if full.BeginTS.GroomSeq() != 2 {
		t.Errorf("unrestricted lookup returned cycle-%d version, want 2", full.BeginTS.GroomSeq())
	}
}

// TestScanRespectsVersionBoundaries covers the timestamp filter at exact
// version boundaries (beginTS == queryTS is visible; beginTS+1 is not).
func TestScanRespectsVersionBoundaries(t *testing.T) {
	ix := newTestIndex(t, nil)
	var entries []run.Entry
	for _, ts := range []types.TS{10, 20, 30} {
		e, err := ix.MakeEntry(
			[]keyenc.Value{keyenc.I64(1)},
			[]keyenc.Value{keyenc.I64(1)},
			[]keyenc.Value{keyenc.I64(int64(ts))},
			ts, types.RID{Zone: types.ZoneGroomed, Block: 1, Offset: uint32(ts)},
		)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if err := ix.BuildRun(entries, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ts   types.TS
		want int64 // expected visible val, -1 = none
	}{
		{9, -1}, {10, 10}, {19, 10}, {20, 20}, {29, 20}, {30, 30}, {types.MaxTS, 30},
	} {
		e, found, err := ix.PointLookup([]keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}, c.ts)
		if err != nil {
			t.Fatal(err)
		}
		if c.want == -1 {
			if found {
				t.Errorf("ts=%v: found version %v, want none", c.ts, e.BeginTS)
			}
			continue
		}
		if !found {
			t.Fatalf("ts=%v: not found", c.ts)
		}
		_, _, incl, err := ix.DecodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if incl[0].Int() != c.want {
			t.Errorf("ts=%v: val=%d, want %d", c.ts, incl[0].Int(), c.want)
		}
	}
}
