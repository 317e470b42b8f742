package core

import (
	"testing"
	"time"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
)

func newCachedIndex(t *testing.T, cacheBytes int64, lat storage.LatencyModel) (*Index, *storage.MemStore, *storage.SSDCache) {
	t.Helper()
	store := storage.NewMemStore(lat)
	cache := storage.NewSSDCache(cacheBytes, storage.LatencyModel{})
	cfg := testConfig("c")
	cfg.Store = store
	cfg.Cache = cache
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, store, cache
}

func TestWriteThroughCaching(t *testing.T) {
	ix, store, cache := newCachedIndex(t, 0, storage.LatencyModel{})
	m := newModel()
	groom(t, ix, m, 1, recsSeq(100, 4, 0))

	// The freshly built run's blocks must already be in the SSD cache, so
	// a lookup should hit zero shared-storage reads.
	readsBefore := store.Stats().Snapshot().Reads
	checkLookup(t, ix, m, 1, 3, types.MaxTS)
	readsAfter := store.Stats().Snapshot().Reads
	if readsAfter != readsBefore {
		t.Errorf("lookup did %d shared-storage reads despite write-through cache", readsAfter-readsBefore)
	}
	if cache.Stats().Hits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestPurgeAndQueryFetchesFromSharedStorage(t *testing.T) {
	ix, store, cache := newCachedIndex(t, 0, storage.LatencyModel{})
	m := newModel()
	groom(t, ix, m, 1, recsSeq(100, 4, 0))

	ix.SetCachedLevel(-1) // purge everything
	if cache.Used() != 0 {
		t.Fatalf("cache not emptied by purge: %d bytes", cache.Used())
	}
	if ix.Stats().RunsPurged == 0 {
		t.Error("purge not counted")
	}

	readsBefore := store.Stats().Snapshot().Reads
	checkLookup(t, ix, m, 1, 3, types.MaxTS)
	readsAfter := store.Stats().Snapshot().Reads
	if readsAfter == readsBefore {
		t.Error("purged lookup did not touch shared storage")
	}
}

func TestLoadRestoresCache(t *testing.T) {
	ix, store, cache := newCachedIndex(t, 0, storage.LatencyModel{})
	m := newModel()
	groom(t, ix, m, 1, recsSeq(100, 4, 0))
	ix.SetCachedLevel(-1)
	ix.SetCachedLevel(ix.MaxLevel()) // load everything back
	if cache.Used() == 0 {
		t.Fatal("load did not repopulate the cache")
	}
	if ix.Stats().RunsLoaded == 0 {
		t.Error("load not counted")
	}
	readsBefore := store.Stats().Snapshot().Reads
	checkLookup(t, ix, m, 1, 3, types.MaxTS)
	if store.Stats().Snapshot().Reads != readsBefore {
		t.Error("lookup after load still reads shared storage")
	}
}

func TestPurgeHalfLevels(t *testing.T) {
	ix, _, _ := newCachedIndex(t, 0, storage.LatencyModel{})
	m := newModel()
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, m, c, recsSeq(40, 4, 0))
		postGroom(t, ix, m, types.PSN(c), c, c)
	}
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Purge everything above the post-groomed zone's first level: its
	// runs stay cached.
	base := ix.post.baseLevel
	ix.SetCachedLevel(base)
	refs, release := ix.post.snapshot()
	defer release()
	merged := false
	for _, r := range refs {
		wantPurged := r.level() > base
		merged = merged || wantPurged
		if r.purged.Load() != wantPurged {
			t.Errorf("run L%d purged=%v, want %v", r.level(), r.purged.Load(), wantPurged)
		}
	}
	if !merged {
		t.Fatal("no merged post-groomed run to purge")
	}
	// Queries remain correct either way.
	for dev := int64(0); dev < 4; dev++ {
		checkLookup(t, ix, m, dev, 5, types.MaxTS)
	}
}

func TestQueryPinnedFetchReleased(t *testing.T) {
	ix, _, cache := newCachedIndex(t, 0, storage.LatencyModel{})
	m := newModel()
	groom(t, ix, m, 1, recsSeq(200, 4, 0))
	ix.SetCachedLevel(-1)
	checkLookup(t, ix, m, 2, 7, types.MaxTS)
	// After the query the fetched blocks may stay cached but must be
	// unpinned: inserting pressure must be able to evict them.
	st := cache.Stats()
	if st.Blocks == 0 {
		t.Skip("query fetched no blocks into cache")
	}
	// Verify nothing is left pinned: dropping every object must empty the
	// cache completely (pinned blocks would survive DropObject pressure
	// accounting as leaked bytes).
	refs, release := ix.groomed.snapshot()
	for _, r := range refs {
		cache.DropObject(r.name)
	}
	release()
	if cache.Used() != 0 {
		t.Errorf("blocks still pinned after query finished: %d bytes", cache.Used())
	}
}

func TestAdjustCachePurgesUnderPressure(t *testing.T) {
	// A tiny cache forces AdjustCache to walk the cached level down.
	ix, _, cache := newCachedIndex(t, 4096, storage.LatencyModel{})
	for c := uint64(1); c <= 8; c++ {
		groom(t, ix, nil, c, recsSeq(200, 4, 0))
	}
	start := ix.CachedLevel()
	for i := 0; i < 16 && cache.Used()*10 > cache.Capacity()*9; i++ {
		ix.AdjustCache()
	}
	if ix.CachedLevel() >= start && cache.Used()*10 > cache.Capacity()*9 {
		t.Errorf("AdjustCache did not reduce cached level under pressure (level %d, used %d/%d)",
			ix.CachedLevel(), cache.Used(), cache.Capacity())
	}
}

func TestAdjustCacheLoadsWhenSpacious(t *testing.T) {
	ix, _, _ := newCachedIndex(t, 1<<20, storage.LatencyModel{})
	groom(t, ix, nil, 1, recsSeq(50, 4, 0))
	ix.SetCachedLevel(-1)
	ix.AdjustCache() // plenty of room: should move the level back up
	if ix.CachedLevel() != 0 {
		t.Errorf("cached level = %d, want 0 after one spacious adjust", ix.CachedLevel())
	}
}

func TestCacheLatencyGapVisible(t *testing.T) {
	// End-to-end sanity for the Figure 14 mechanism: with slow shared
	// storage, purged lookups must be much slower than cached ones.
	lat := storage.LatencyModel{PerOp: 2 * time.Millisecond}
	ix, _, _ := newCachedIndex(t, 0, lat)
	m := newModel()
	groom(t, ix, m, 1, recsSeq(100, 4, 0))

	timeLookup := func() time.Duration {
		start := time.Now()
		checkLookup(t, ix, m, 1, 3, types.MaxTS)
		return time.Since(start)
	}
	cached := timeLookup()
	ix.SetCachedLevel(-1)
	purged := timeLookup()
	if purged < cached {
		t.Errorf("purged lookup (%v) not slower than cached (%v)", purged, cached)
	}
	if purged < lat.PerOp {
		t.Errorf("purged lookup %v beat the storage latency %v", purged, lat.PerOp)
	}
}

func TestNoCacheConfigured(t *testing.T) {
	// cache == nil: everything reads shared storage; no crashes.
	cfg := testConfig("nc")
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	m := newModel()
	groom(t, ix, m, 1, recsSeq(50, 2, 0))
	ix.SetCachedLevel(-1) // no-op without a cache
	ix.AdjustCache()
	checkLookup(t, ix, m, 1, 3, types.MaxTS)
}

func TestPurgedRunSurvivesGC(t *testing.T) {
	// GC of a purged run must drop cache blocks and the object.
	ix, store, _ := newCachedIndex(t, 0, storage.LatencyModel{})
	groom(t, ix, nil, 1, recsSeq(20, 2, 0))
	ix.SetCachedLevel(-1)
	e, err := ix.MakeEntry(
		[]keyenc.Value{keyenc.I64(0)},
		[]keyenc.Value{keyenc.I64(0)},
		[]keyenc.Value{keyenc.I64(0)},
		types.MakeTS(1, 0),
		types.RID{Zone: types.ZonePostGroomed, Block: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Evolve(1, []run.Entry{e}, types.BlockRange{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	names, _ := store.List("c/z1/")
	if len(names) != 0 {
		t.Errorf("GCed purged run still in storage: %v", names)
	}
}
