package core

import (
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
)

// postGroom simulates the post-groomer's side of Figure 5: it re-locates
// every record of groomed blocks [lo,hi] into a post-groomed block and
// hands the index the evolve operation. The model's RIDs are updated the
// same way so lookups can verify the migrated locations.
func postGroom(t *testing.T, ix *Index, m *model, psn types.PSN, lo, hi uint64) {
	t.Helper()
	// Collect the newest state of every record in the groomed range by
	// scanning the model (stand-in for reading the groomed blocks).
	var entries []run.Entry
	if m != nil {
		offset := uint32(0)
		for k, versions := range m.versions {
			for i := range versions {
				r := &versions[i]
				if r.rid.Zone == types.ZoneGroomed && r.rid.Block >= lo && r.rid.Block <= hi {
					r.rid = types.RID{Zone: types.ZonePostGroomed, Block: uint64(psn), Offset: offset}
					offset++
					e, err := ix.MakeEntry(
						[]keyenc.Value{keyenc.I64(k[0])},
						[]keyenc.Value{keyenc.I64(r.msg)},
						[]keyenc.Value{keyenc.I64(r.val)},
						r.ts, r.rid,
					)
					if err != nil {
						t.Fatal(err)
					}
					entries = append(entries, e)
				}
			}
		}
	}
	if err := ix.Evolve(psn, entries, types.BlockRange{Min: lo, Max: hi}); err != nil {
		t.Fatal(err)
	}
}

func TestEvolveBasic(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 4; c++ {
		groom(t, ix, m, c, recsSeq(40, 4, 0))
	}
	postGroom(t, ix, m, 1, 1, 2)

	if got := ix.MaxCoveredGroomedID(); got != 2 {
		t.Fatalf("MaxCoveredGroomedID = %d, want 2", got)
	}
	if got := ix.IndexedPSN(); got != 1 {
		t.Fatalf("IndexedPSN = %d, want 1", got)
	}
	g, p := ix.RunCounts()
	if p != 1 {
		t.Fatalf("post-groomed runs = %d, want 1", p)
	}
	if g != 2 {
		t.Fatalf("groomed runs = %d, want 2 (blocks 1 and 2 GCed)\n%s", g, fmtRuns(ix))
	}
	// All data remains visible, with RIDs pointing at the new zone for
	// migrated records.
	for dev := int64(0); dev < 4; dev++ {
		for msg := int64(0); msg < 10; msg++ {
			checkLookup(t, ix, m, dev, msg, types.MaxTS)
		}
	}
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvolvePSNOrder(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(4, 2, 0))
	if err := ix.Evolve(2, nil, types.BlockRange{Min: 1, Max: 1}); err == nil {
		t.Error("out-of-order PSN accepted")
	}
	if err := ix.Evolve(1, nil, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Errorf("in-order PSN rejected: %v", err)
	}
	if err := ix.Evolve(1, nil, types.BlockRange{Min: 1, Max: 1}); err == nil {
		t.Error("replayed PSN accepted")
	}
}

func TestEvolvePartialCoverageKeepsGroomedRun(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	// One groomed run covering blocks 1-3 (via merge), then post-groom
	// only blocks 1-2: the groomed run is partially covered and must stay.
	for c := uint64(1); c <= 3; c++ {
		groom(t, ix, m, c, recsSeq(20, 2, 0))
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	postGroom(t, ix, m, 1, 1, 2)

	g, p := ix.RunCounts()
	if p != 1 {
		t.Fatalf("post runs = %d", p)
	}
	if g == 0 {
		t.Fatalf("partially covered groomed run was GCed\n%s", fmtRuns(ix))
	}
	// Duplicates across zones are benign: each key returns exactly once.
	got, err := ix.RangeScan(ScanOptions{
		Equality: []keyenc.Value{keyenc.I64(0)},
		TS:       types.MaxTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("scan with cross-zone duplicates returned %d results, want 10", len(got))
	}
	for dev := int64(0); dev < 2; dev++ {
		for msg := int64(0); msg < 10; msg++ {
			checkLookup(t, ix, m, dev, msg, types.MaxTS)
		}
	}
}

func TestEvolveChainAndPostZoneMerge(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) { c.K = 2 })
	m := newModel()
	psn := types.PSN(0)
	for c := uint64(1); c <= 12; c++ {
		groom(t, ix, m, c, recsSeq(30, 3, 0))
		if c%2 == 0 {
			psn++
			postGroom(t, ix, m, psn, c-1, c)
		}
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, fmtRuns(ix))
	}
	if got := ix.MaxCoveredGroomedID(); got != 12 {
		t.Fatalf("covered = %d, want 12", got)
	}
	g, p := ix.RunCounts()
	if g != 0 {
		t.Fatalf("groomed runs = %d, want 0 (all evolved)\n%s", g, fmtRuns(ix))
	}
	if p >= 6 {
		t.Fatalf("post-zone merges did not reduce run count: %d", p)
	}
	for dev := int64(0); dev < 3; dev++ {
		for msg := int64(0); msg < 10; msg++ {
			checkLookup(t, ix, m, dev, msg, types.MaxTS)
		}
	}
	// Historical reads still correct after evolve + merges.
	for c := uint64(1); c <= 12; c += 3 {
		checkLookup(t, ix, m, 1, 4, types.MakeTS(c, 1<<20))
		checkScan(t, ix, m, 1, 0, 9, types.MakeTS(c, 1<<20))
	}
}

func TestEvolveDeletesGCedObjects(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 2; c++ {
		groom(t, ix, m, c, recsSeq(10, 2, 0))
	}
	postGroom(t, ix, m, 1, 1, 2)
	names, err := ix.store.List("t/z1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("GCed groomed objects remain in storage: %v", names)
	}
	post, err := ix.store.List("t/z2/")
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != 1 {
		t.Errorf("post zone objects = %v, want exactly 1", post)
	}
}

func TestEvolveEmptyRange(t *testing.T) {
	// A post-groom over records that were all deleted produces no
	// entries; the evolve must still advance coverage and GC.
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(6, 2, 0))
	if err := ix.Evolve(1, nil, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	if got := ix.MaxCoveredGroomedID(); got != 1 {
		t.Fatalf("covered = %d", got)
	}
	g, p := ix.RunCounts()
	if g != 0 || p != 0 {
		t.Fatalf("run counts after empty evolve = (%d,%d)", g, p)
	}
}

func TestQueryDuringEvolveSeesEverythingOnce(t *testing.T) {
	// Exercise the intermediate states: between every pair of evolve
	// steps, a query must return each key exactly once (invariant 3).
	// crash points give deterministic access to the in-between states.
	for _, point := range []string{"evolve.after-step1", "evolve.after-step2"} {
		t.Run(point, func(t *testing.T) {
			ix := newTestIndex(t, nil)
			m := newModel()
			for c := uint64(1); c <= 3; c++ {
				groom(t, ix, m, c, recsSeq(20, 2, 0))
			}
			crashPoints[point] = true
			defer delete(crashPoints, point)
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatal("crash point did not fire")
					}
				}()
				postGroom(t, ix, m, 1, 1, 2)
			}()
			delete(crashPoints, point)

			// The index instance is mid-evolve: exactly the state a
			// concurrent query would observe. Each key must appear exactly
			// once with its newest version.
			got, err := ix.RangeScan(ScanOptions{
				Equality: []keyenc.Value{keyenc.I64(1)},
				TS:       types.MaxTS,
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int64]bool{}
			for _, e := range got {
				_, sortv, _, err := ix.DecodeEntry(e)
				if err != nil {
					t.Fatal(err)
				}
				msg := sortv[0].Int()
				if seen[msg] {
					t.Fatalf("key msg=%d returned twice mid-evolve (%s)", msg, point)
				}
				seen[msg] = true
			}
			if len(seen) != 10 {
				t.Fatalf("mid-evolve scan returned %d keys, want 10 (%s)", len(seen), point)
			}
		})
	}
}
