package core

import (
	"errors"
	"strings"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// reopen simulates an indexer crash + restart: the old instance is
// abandoned and a new one recovers from the same shared storage.
func reopen(t *testing.T, old *Index) *Index {
	t.Helper()
	cfg := old.cfg
	ix, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// checkAll verifies every key of the model at several timestamps against
// the index.
func checkAll(t *testing.T, ix *Index, m *model, devices, msgs int64, tss ...types.TS) {
	t.Helper()
	for _, ts := range tss {
		for dev := int64(0); dev < devices; dev++ {
			for msg := int64(0); msg < msgs; msg++ {
				checkLookup(t, ix, m, dev, msg, ts)
			}
		}
	}
}

func TestRecoverFreshIndex(t *testing.T) {
	cfg := testConfig("r")
	ix, err := Open(cfg) // nothing in storage: Open creates empty
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	g, p := ix.RunCounts()
	if g != 0 || p != 0 {
		t.Fatalf("fresh open has runs: (%d,%d)", g, p)
	}
}

func TestRecoverAfterIngest(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 5; c++ {
		groom(t, ix, m, c, recsSeq(30, 3, 0))
	}
	ix2 := reopen(t, ix)
	g, _ := ix2.RunCounts()
	if g != 5 {
		t.Fatalf("recovered %d groomed runs, want 5\n%s", g, fmtRuns(ix2))
	}
	checkAll(t, ix2, m, 3, 10, types.MaxTS, types.MakeTS(3, 1<<20))
	if err := ix2.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverAfterMerges(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 8; c++ {
		groom(t, ix, m, c, recsSeq(20, 2, 0))
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// The merged groomed runs are gone with the process; recovery finds
	// the level-0 runs and re-merging them restores the live shape.
	ix2 := reopen(t, ix)
	if g, _ := ix2.RunCounts(); g != 8 {
		t.Fatalf("recovered %d groomed runs, want the 8 level-0 runs\n%s", g, fmtRuns(ix2))
	}
	checkAll(t, ix2, m, 2, 10, types.MaxTS)
	if err := ix2.Quiesce(); err != nil {
		t.Fatal(err)
	}
	g1, p1 := ix.RunCounts()
	g2, p2 := ix2.RunCounts()
	if g1 != g2 || p1 != p2 {
		t.Fatalf("re-merged counts (%d,%d) != live counts (%d,%d)", g2, p2, g1, p1)
	}
	checkAll(t, ix2, m, 2, 10, types.MaxTS)
	if err := ix2.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverOverlappingRunsKeepLargest(t *testing.T) {
	// Hand-craft the §5.5 situation in the post-groomed zone, where merge
	// outputs persist: storage holds a merged run [1,2] and its two stale
	// inputs [1,1], [2,2]. Recovery must keep [1,2], delete the inputs.
	cfg := testConfig("ov")
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	for c := uint64(1); c <= 2; c++ {
		groom(t, ix, m, c, recsSeq(10, 2, 0))
		postGroom(t, ix, m, types.PSN(c), c, c)
	}
	// Snapshot the input objects before the merge deletes them and
	// re-put them after.
	inputs, err := cfg.Store.List("ov/z2/")
	if err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, n := range inputs {
		data, err := cfg.Store.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		saved[n] = data
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	for n, data := range saved {
		if err := cfg.Store.Put(n, data); err != nil {
			t.Fatal(err)
		}
	}
	pre, _ := cfg.Store.List("ov/z2/")
	if len(pre) != 3 {
		t.Fatalf("setup failed: %d objects, want 3 (merged + 2 stale)", len(pre))
	}

	ix2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	_, p := ix2.RunCounts()
	if p != 1 {
		t.Fatalf("recovered %d runs, want 1 (largest range wins)\n%s", p, fmtRuns(ix2))
	}
	post, _ := cfg.Store.List("ov/z2/")
	if len(post) != 1 {
		t.Errorf("stale inputs not deleted during recovery: %v", post)
	}
	checkAll(t, ix2, m, 2, 5, types.MaxTS)
}

func TestRecoverDeletesCorruptObjects(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(10, 2, 0))
	// An interrupted run write (garbage object).
	if err := ix.store.Put("t/z1/run-99999999-L0-9-9", []byte("partial garbage")); err != nil {
		t.Fatal(err)
	}
	ix2 := reopen(t, ix)
	g, _ := ix2.RunCounts()
	if g != 1 {
		t.Fatalf("recovered %d runs, want 1", g)
	}
	names, _ := ix2.store.List("t/z1/")
	if len(names) != 1 {
		t.Errorf("corrupt object survived recovery: %v", names)
	}
}

// failRangeStore fails every GetRange of one object, as a transient
// store fault would.
type failRangeStore struct {
	storage.ObjectStore
	name string
}

var errTransientRead = errors.New("transient read fault")

func (s failRangeStore) GetRange(name string, off, n int64) ([]byte, error) {
	if name == s.name {
		return nil, errTransientRead
	}
	return s.ObjectStore.GetRange(name, off, n)
}

// TestRecoverReadErrorKeepsRun: a run header that cannot be read is not
// an interrupted write. Open must fail with the read error and leave the
// run in storage, where the next Open recovers it.
func TestRecoverReadErrorKeepsRun(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	groom(t, ix, m, 1, recsSeq(10, 2, 0))
	names, err := ix.store.List("t/z1/")
	if err != nil || len(names) != 1 || !strings.Contains(names[0], "-L0-") {
		t.Fatalf("setup: groomed runs %v (%v), want one level-0 run", names, err)
	}
	cfg := ix.cfg
	cfg.Store = failRangeStore{ObjectStore: ix.store, name: names[0]}
	if bad, err := Open(cfg); err == nil {
		bad.Close()
		t.Fatal("Open succeeded over an unreadable run header")
	} else if !errors.Is(err, errTransientRead) {
		t.Fatalf("Open: %v, want the read error", err)
	}
	if after, _ := ix.store.List("t/z1/"); len(after) != 1 || after[0] != names[0] {
		t.Fatalf("run listing after the failed Open: %v, want %v", after, names)
	}
	ix2 := reopen(t, ix)
	if g, _ := ix2.RunCounts(); g != 1 {
		t.Fatalf("recovered %d groomed runs, want 1", g)
	}
	checkAll(t, ix2, m, 2, 10, types.MaxTS)
}

func TestRecoverAfterEvolve(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 4; c++ {
		groom(t, ix, m, c, recsSeq(20, 2, 0))
	}
	postGroom(t, ix, m, 1, 1, 2)
	ix2 := reopen(t, ix)
	if got := ix2.MaxCoveredGroomedID(); got != 2 {
		t.Fatalf("recovered covered = %d, want 2", got)
	}
	if got := ix2.IndexedPSN(); got != 1 {
		t.Fatalf("recovered PSN = %d, want 1", got)
	}
	checkAll(t, ix2, m, 2, 10, types.MaxTS)
}

func TestRecoverCrashMidEvolve(t *testing.T) {
	// Crash between each pair of evolve steps; recovery must converge to
	// a consistent state answering every query correctly and resume at
	// the right PSN.
	for _, point := range []string{"evolve.after-step1", "evolve.after-step2"} {
		t.Run(point, func(t *testing.T) {
			ix := newTestIndex(t, nil)
			m := newModel()
			for c := uint64(1); c <= 3; c++ {
				groom(t, ix, m, c, recsSeq(20, 2, 0))
			}
			crashPoints[point] = true
			func() {
				defer func() {
					delete(crashPoints, point)
					if recover() == nil {
						t.Fatal("crash point did not fire")
					}
				}()
				postGroom(t, ix, m, 1, 1, 2)
			}()

			ix2 := reopen(t, ix)
			// The post run was persisted in step 1, so recovery must see
			// coverage 2 and PSN 1 in both crash cases.
			if got := ix2.MaxCoveredGroomedID(); got != 2 {
				t.Fatalf("covered = %d, want 2", got)
			}
			if got := ix2.IndexedPSN(); got != 1 {
				t.Fatalf("PSN = %d, want 1", got)
			}
			// Interrupted GC must have completed during recovery.
			refs, release := ix2.groomed.snapshot()
			for _, r := range refs {
				if r.blocks().Max <= 2 {
					t.Errorf("covered groomed run %v survived recovery", r.blocks())
				}
			}
			release()
			checkAll(t, ix2, m, 2, 10, types.MaxTS)
			if err := ix2.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRecoverIdempotent(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, m, c, recsSeq(20, 2, 0))
	}
	postGroom(t, ix, m, 1, 1, 3)
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	ix2 := reopen(t, ix)
	ix3 := reopen(t, ix2)
	g2, p2 := ix2.RunCounts()
	g3, p3 := ix3.RunCounts()
	if g2 != g3 || p2 != p3 {
		t.Fatalf("recover not idempotent: (%d,%d) vs (%d,%d)", g2, p2, g3, p3)
	}
	checkAll(t, ix3, m, 2, 10, types.MaxTS)
}

func TestRecoverGroomedZoneFromLevel0Ancestors(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, m, c, recsSeq(20, 2, 0))
		if err := ix.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Stats().Merges == 0 {
		t.Fatal("no merged run existed at the crash")
	}
	// Crash: the merged groomed runs were never persisted and are lost;
	// their level-0 ancestors bring the data back.
	ix2 := reopen(t, ix)
	refs, release := ix2.groomed.snapshot()
	for _, r := range refs {
		if r.level() != 0 {
			t.Errorf("recovered a level-%d groomed run %s", r.level(), r.name)
		}
	}
	release()
	checkAll(t, ix2, m, 2, 10, types.MaxTS, types.MakeTS(3, 1<<20))
	if err := ix2.VerifyInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, fmtRuns(ix2))
	}
}

func TestRecoverRunSeqContinues(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, recsSeq(4, 2, 0))
	ix2 := reopen(t, ix)
	// New builds must not collide with recovered object names.
	m := newModel()
	groom(t, ix2, m, 2, recsSeq(4, 2, 0))
	g, _ := ix2.RunCounts()
	if g != 2 {
		t.Fatalf("post-recovery build failed: %d runs", g)
	}
}

func TestRunSeqFromName(t *testing.T) {
	cases := map[string]uint64{
		"t/z1/run-00000042-L0-1-1": 42,
		"t/z1/run-00000001-L2-0-9": 1,
		"weird":                    0,
		"t/z1/run-x-L0-1-1":        0,
	}
	for name, want := range cases {
		if got := runSeqFromName(name); got != want {
			t.Errorf("runSeqFromName(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestRecoveredIndexSupportsEvolve(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 4; c++ {
		groom(t, ix, m, c, recsSeq(20, 2, 0))
	}
	postGroom(t, ix, m, 1, 1, 2)
	ix2 := reopen(t, ix)
	// The next PSN continues from the recovered watermark.
	postGroom(t, ix2, m, 2, 3, 4)
	if got := ix2.MaxCoveredGroomedID(); got != 4 {
		t.Fatalf("covered = %d, want 4", got)
	}
	checkAll(t, ix2, m, 2, 10, types.MaxTS)
}

func TestSynopsisSurvivesRecovery(t *testing.T) {
	ix := newTestIndex(t, nil)
	groom(t, ix, nil, 1, []record{{device: 1, msg: 1}})
	groom(t, ix, nil, 2, []record{{device: 100, msg: 1}})
	ix2 := reopen(t, ix)
	before := ix2.Stats()
	if _, _, err := ix2.PointLookup([]keyenc.Value{keyenc.I64(100)}, []keyenc.Value{keyenc.I64(1)}, types.MaxTS); err != nil {
		t.Fatal(err)
	}
	after := ix2.Stats()
	if after.RunsPruned-before.RunsPruned != 1 {
		t.Error("synopsis-based pruning lost after recovery")
	}
}
