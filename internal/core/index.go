package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// Index is one Umzi index instance, serving a single table shard (§3).
// All query methods are safe for arbitrary concurrency and never block on
// maintenance. The index runs no goroutines of its own: its owner drives
// maintenance through MaintainOnce and AdjustCache (the table's index
// maintainer calls both once per tick; tests call them directly).
type Index struct {
	cfg   Config
	rdef  run.Def
	store storage.ObjectStore
	cache *storage.SSDCache

	groomed *zoneList
	post    *zoneList

	// maxCovered is the maximum groomed block ID covered by the
	// post-groomed run list (§5.4 step 2). Queries load it before
	// snapshotting the lists; groomed runs with Blocks.Max <= maxCovered
	// are ignored.
	maxCovered atomic.Uint64
	// indexedPSN is the PSN of the last applied evolve operation.
	indexedPSN atomic.Uint64

	// cachedLevel is the current cached level of §6.2: runs at global
	// levels strictly greater are purged from the SSD cache.
	cachedLevel atomic.Int32

	runSeq  atomic.Uint64
	metaSeq atomic.Uint64

	stats Stats

	// maintMu serializes whole maintenance operations (merge planning /
	// evolve / recovery) so list state transitions stay simple; queries
	// never touch it.
	maintMu sync.Mutex

	closed atomic.Bool
}

// Stats exposes operational counters; all fields are atomics so queries
// can bump them without coordination.
type Stats struct {
	Queries        atomic.Int64
	RunsSearched   atomic.Int64
	RunsPruned     atomic.Int64
	RunsCovered    atomic.Int64 // groomed runs skipped via maxCovered
	EntriesScanned atomic.Int64
	Builds         atomic.Int64
	Merges         atomic.Int64
	Evolves        atomic.Int64
	RunsGCed       atomic.Int64
	RunsPurged     atomic.Int64
	RunsLoaded     atomic.Int64
}

// StatsSnapshot is a plain copy of the counters.
type StatsSnapshot struct {
	Queries, RunsSearched, RunsPruned, RunsCovered, EntriesScanned int64
	Builds, Merges, Evolves, RunsGCed, RunsPurged, RunsLoaded      int64
}

// Stats returns a snapshot of the index counters.
func (ix *Index) Stats() StatsSnapshot {
	return StatsSnapshot{
		Queries:        ix.stats.Queries.Load(),
		RunsSearched:   ix.stats.RunsSearched.Load(),
		RunsPruned:     ix.stats.RunsPruned.Load(),
		RunsCovered:    ix.stats.RunsCovered.Load(),
		EntriesScanned: ix.stats.EntriesScanned.Load(),
		Builds:         ix.stats.Builds.Load(),
		Merges:         ix.stats.Merges.Load(),
		Evolves:        ix.stats.Evolves.Load(),
		RunsGCed:       ix.stats.RunsGCed.Load(),
		RunsPurged:     ix.stats.RunsPurged.Load(),
		RunsLoaded:     ix.stats.RunsLoaded.Load(),
	}
}

// New creates a fresh index. Fails if storage already holds objects under
// cfg.Name (use Open to recover an existing index).
func New(cfg Config) (*Index, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	existing, err := cfg.Store.List(cfg.Name + "/")
	if err != nil {
		return nil, fmt.Errorf("core: listing storage: %w", err)
	}
	if len(existing) > 0 {
		return nil, fmt.Errorf("core: index %q already exists in storage (%d objects); use Open", cfg.Name, len(existing))
	}
	return newIndex(cfg), nil
}

// Open recovers an index from shared storage (§5.5), or creates a fresh
// one when storage holds nothing under cfg.Name.
func Open(cfg Config) (*Index, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ix := newIndex(cfg)
	if err := ix.recover(); err != nil {
		return nil, err
	}
	return ix, nil
}

func newIndex(cfg Config) *Index {
	ix := &Index{
		cfg:   cfg,
		rdef:  cfg.Def.RunDef(),
		store: cfg.Store,
		cache: cfg.Cache,
		groomed: &zoneList{
			zone:      types.ZoneGroomed,
			baseLevel: 0,
			levels:    cfg.GroomedLevels,
		},
		post: &zoneList{
			zone:      types.ZonePostGroomed,
			baseLevel: cfg.GroomedLevels,
			levels:    cfg.PostGroomedLevels,
		},
	}
	if cfg.DisableOffsetArray {
		ix.rdef.HashBits = 0
	}
	// Everything cached by default; the cache manager moves the boundary.
	ix.cachedLevel.Store(int32(cfg.GroomedLevels + cfg.PostGroomedLevels - 1))
	return ix
}

// Def returns the index definition.
func (ix *Index) Def() IndexDef { return ix.cfg.Def }

// MaxLevel returns the highest global level (post-groomed zone top).
func (ix *Index) MaxLevel() int { return ix.cfg.GroomedLevels + ix.cfg.PostGroomedLevels - 1 }

// MaxCoveredGroomedID returns the maximum groomed block ID covered by the
// post-groomed run list.
func (ix *Index) MaxCoveredGroomedID() uint64 { return ix.maxCovered.Load() }

// IndexedPSN returns the PSN of the last applied evolve operation.
func (ix *Index) IndexedPSN() types.PSN { return types.PSN(ix.indexedPSN.Load()) }

// RunCounts returns the number of runs per zone (groomed, post-groomed).
func (ix *Index) RunCounts() (groomed, post int) {
	return ix.groomed.len(), ix.post.len()
}

// MinLiveGroomedBlock returns the smallest groomed block ID still
// referenced by any run in the groomed list, and false when the list is
// empty. The engine uses it to decide which deprecated groomed data
// blocks are truly unreferenced and safe to delete: merged runs may span
// block ranges only partially covered by evolve (§5.4), and their entries
// can still hand out RIDs into low blocks.
func (ix *Index) MinLiveGroomedBlock() (uint64, bool) {
	refs, release := ix.groomed.snapshot()
	defer release()
	if len(refs) == 0 {
		return 0, false
	}
	min := refs[0].blocks().Min
	for _, r := range refs[1:] {
		if b := r.blocks().Min; b < min {
			min = b
		}
	}
	return min, true
}

// Close marks the index closed: queries and maintenance issued after it
// fail. Maintenance is driven from outside (the table's index
// maintainer), which stops before it closes the index.
func (ix *Index) Close() error {
	ix.closed.Store(true)
	return nil
}

// nextRunName mints a unique storage object name for a run in the given
// zone. Names embed the level and block range for human inspection; only
// uniqueness and the zone prefix carry semantics.
func (ix *Index) nextRunName(zone types.ZoneID, level int, blocks types.BlockRange) string {
	seq := ix.runSeq.Add(1)
	return fmt.Sprintf("%s/z%d/run-%08d-L%d-%d-%d", ix.cfg.Name, zone, seq, level, blocks.Min, blocks.Max)
}

// newRunRef wraps a built run object as a list node holding the initial
// list reference.
func (ix *Index) newRunRef(name string, h *run.Header, mem []byte) *runRef {
	ref := &runRef{ix: ix, seq: ix.runSeq.Load(), name: name, header: h, mem: mem}
	ref.refs.Store(1)
	return ref
}

// zoneOf maps a global level to its zone list.
func (ix *Index) zoneOf(level int) *zoneList {
	if level < ix.cfg.GroomedLevels {
		return ix.groomed
	}
	return ix.post
}
