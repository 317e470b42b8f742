package wildfire

import (
	"fmt"
	"sync"
	"sync/atomic"

	"umzi/internal/columnar"
	"umzi/internal/core"
	"umzi/internal/storage"
	"umzi/internal/types"
	"umzi/internal/wal"
)

// shard is one Wildfire table shard — the unit of grooming,
// post-grooming and indexing (§2.1): live zone, groomer, post-groomer,
// indexer and the per-shard read primitives the table's coordinator
// (ShardedEngine) routes to.
type shard struct {
	table      TableDef
	ixSpec     IndexSpec
	store      storage.ObjectStore
	cache      *storage.SSDCache
	tuning     core.Config
	replicas   []*replica
	partitions int
	mx         *engineMetrics

	// idx is the primary index; indexes is the full set (element 0 is
	// the primary), immutable slices swapped copy-on-write so queries
	// load it without locks. indexMu serializes set changes and catalog
	// writes.
	idx        *core.Index
	indexes    atomic.Pointer[[]*tableIndex]
	indexMu    sync.Mutex
	catalogSeq atomic.Uint64

	// commitSeq is the global tentative-commit clock; the groomer merges
	// replica logs in this order (§2.1 "merges, in the time order,
	// transaction logs from shard replicas"). It doubles as the commit
	// log's row sequence: every assigned value is either durably logged,
	// groomed, or recorded as lost — and recovery floors the clock so
	// sequences are never reused.
	commitSeq atomic.Uint64

	// wal is the shard's durable commit log; walMu guards the watermark
	// bookkeeping: walMark is the contiguous groomed prefix (every
	// sequence <= walMark is durably groomed) and walDrained holds
	// groomed or lost sequences above it, waiting for gaps to close.
	// walMarkSeq / walMarkPersisted (the mark-record counter and the
	// last persisted watermark) are touched only under writerMu.
	wal              *wal.Log
	durable          DurabilityOptions
	walMu            sync.Mutex
	walMark          uint64
	walDrained       map[uint64]struct{}
	walMarkSeq       uint64
	walMarkPersisted uint64
	// groomCycle numbers groom operations; it doubles as the groomed
	// block ID and as the high part of beginTS. postBlockSeq numbers
	// post-groomed blocks.
	groomCycle   atomic.Uint64
	postBlockSeq atomic.Uint64

	// zone is the published zoneVersion: readers Load it, writers replace
	// it through publish.
	zone atomic.Pointer[zoneVersion]

	// writerMu is the shard's one zone-writer mutex: groom, post-groom,
	// index evolve with block reclaim, and createIndex each hold it for
	// their whole operation, so the writers of the zone state, the commit
	// log watermark and the retire queue never overlap.
	writerMu sync.Mutex

	// blocks is the bounded decoded-block cache (data access path); it
	// may be shared across shards. scanPool bounds the intra-shard
	// block fetch/decode/classify workers.
	blocks   *BlockCache
	scanPool *gatherPool

	// gate tracks in-flight queries. deprecated holds groomed block IDs
	// consumed by post-grooms that some index of the set can still hand
	// out RIDs into: a block is retired only once no index (primary or
	// secondary) can. retireQueue holds the names of retired blocks,
	// each tagged with the query epoch of its retirement; the storage
	// object and the cached decode go once that epoch drains, so a query
	// that resolved RIDs into a block before it was retired can still
	// read it — "marked deprecated and eventually deleted" (§5.4)
	// without blocking readers. Both are touched only under writerMu
	// (evolveOne and reclaimDeprecated run inside syncIndex) or by
	// single-threaded recovery.
	gate        queryGate
	deprecated  map[uint64]struct{}
	retireQueue []retireItem

	closed atomic.Bool
}

// zoneVersion is one immutable snapshot of a shard's zone state; a
// published version is never written again.
type zoneVersion struct {
	// grooming holds the records the last groom drained from the replica
	// logs until their groomed block is published; live reads count them
	// as live. A failed groom requeues them into a log and leaves them
	// here too, for the next drain to replace, so that no record moves
	// from the version back to a log.
	grooming []logRecord
	// pending lists the groomed blocks not yet post-groomed, post the
	// post-groomed blocks of committed post-grooms, each in publish order:
	// together they hold every groomed version exactly once. Versions
	// share the *postBlock pointers, so a synopsis filled in through one
	// version is seen by every later one.
	pending []uint64
	post    []*postBlock
	// lastGroomTS is the snapshot boundary: every groomed version has
	// beginTS <= lastGroomTS.
	lastGroomTS types.TS
	// maxPSN is the post-groomer's published watermark, which the indexer
	// polls (Figure 5); consumedHi is the highest groomed block ID its
	// post-grooms consumed.
	maxPSN     types.PSN
	consumedHi uint64
	// endTS overrides the endTS of replaced post-groomed versions (post
	// block ID -> overrides sorted by offset), from the sidecars of the
	// post-grooms up to maxPSN; every override is <= lastGroomTS. A
	// post-groom clones the map and gives each block it touches a fresh
	// slice.
	endTS map[uint64][]endTSOverride
}

// postBlock is one published post-groomed block. syn is its synopsis,
// which lets the executor skip the block without fetching it: the
// post-groom that built the block sets it, and after a reopen the
// executor fills it on the block's first fetch.
type postBlock struct {
	id  uint64
	syn atomic.Pointer[columnar.Synopsis]
}

// publish replaces the zone version with an edited copy of it. Callers
// hold writerMu. Slices reachable from the current version must be
// copied before they are appended to.
func (e *shard) publish(edit func(v *zoneVersion)) {
	next := *e.zone.Load()
	edit(&next)
	e.zone.Store(&next)
}

// newShard opens shard ord of the table cfg declares: fresh, or recovered
// when storage already holds it. NewShardedEngine has validated cfg and
// applied its defaults; blocks is the table's decoded-block cache and
// scanPar the per-shard scan parallelism. The index set is restored from
// the persisted catalog; cfg.Secondaries not yet in the catalog are built
// online from the existing zones.
func newShard(cfg ShardedConfig, ord int, blocks *BlockCache, scanPar int) (*shard, error) {
	table := cfg.Table
	table.Name = ShardTableName(cfg.Table.Name, cfg.Shards, ord)
	e := &shard{
		table:      table,
		ixSpec:     cfg.Index,
		store:      cfg.Store,
		cache:      cfg.Cache,
		tuning:     cfg.IndexTuning,
		durable:    cfg.Durability,
		partitions: cfg.Partitions,
		mx:         newEngineMetrics(cfg.Obs, table.Name),
		blocks:     blocks,
		scanPool:   newGatherPool(scanPar),
		deprecated: make(map[uint64]struct{}),
		walDrained: make(map[uint64]struct{}),
	}
	for r := 0; r < cfg.Replicas; r++ {
		e.replicas = append(e.replicas, &replica{id: r})
	}

	// The catalog is the authoritative index set; a table without one
	// (fresh, or created before catalogs existed) starts primary-only and
	// every declared secondary goes through the backfill path below.
	catalog, seq, err := LoadIndexCatalog(e.store, table.Name)
	if err != nil {
		return nil, err
	}
	e.catalogSeq.Store(seq)
	catalogMissing := catalog == nil
	if catalogMissing {
		catalog = []IndexCatalogEntry{{Name: "", Spec: cfg.Index}}
	} else if !specEqual(catalog[0].Spec, cfg.Index) {
		return nil, fmt.Errorf("wildfire: table %s: primary index spec differs from the stored catalog", table.Name)
	}
	var set []*tableIndex
	closeAll := func() {
		for _, ti := range set {
			ti.idx.Close()
		}
	}
	for i, entry := range catalog {
		if i > 0 {
			if entry.Name == "" {
				closeAll()
				return nil, fmt.Errorf("wildfire: table %s: catalog names a second primary", table.Name)
			}
			if decl, ok := declaredSecondary(cfg.Secondaries, entry.Name); ok && !specEqual(decl, entry.Spec) {
				closeAll()
				return nil, fmt.Errorf("wildfire: secondary index %q: declared spec differs from the stored catalog", entry.Name)
			}
		}
		ti, err := e.openTableIndex(entry.Name, entry.Spec)
		if err != nil {
			closeAll()
			return nil, err
		}
		set = append(set, ti)
	}
	e.idx = set[0].idx
	e.indexes.Store(&set)
	if catalogMissing {
		// Persist the catalog even for primary-only tables (fresh, or
		// created before catalogs existed), so the index set is always
		// reconstructable — and inspectable — from storage alone.
		e.indexMu.Lock()
		err := e.writeCatalogLocked()
		e.indexMu.Unlock()
		if err != nil {
			closeAll()
			return nil, err
		}
	}

	// The commit log opens before recovery: recoverState restores the
	// groomed/post-groomed state and recoverWAL then replays the log
	// tail above the groom watermark to rebuild the live zone.
	log, err := wal.Open(e.store, WALStoragePrefix(table.Name), e.walOptions())
	if err != nil {
		closeAll()
		return nil, err
	}
	e.wal = log
	fail := func(err error) (*shard, error) {
		e.wal.Close()
		for _, ti := range e.indexSet() {
			ti.idx.Close()
		}
		return nil, err
	}
	if err := e.recoverState(); err != nil {
		return fail(err)
	}
	if err := e.recoverWAL(); err != nil {
		return fail(err)
	}
	// Secondaries declared in the config but absent from the catalog:
	// online backfill (on a fresh table this is a no-op build).
	for _, s := range cfg.Secondaries {
		if _, err := e.lookupIndex(s.Name); err == nil {
			continue
		}
		if err := e.createIndex(s); err != nil {
			return fail(err)
		}
	}
	e.registerGauges()
	return e, nil
}

func declaredSecondary(specs []SecondaryIndexSpec, name string) (IndexSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s.IndexSpec, true
		}
	}
	return IndexSpec{}, false
}

// maintainOnce runs one maintenance pass (one merge attempt per level of
// each zone) on every index of the set; it reports whether any merged.
func (e *shard) maintainOnce() (bool, error) {
	worked := false
	for _, ti := range e.indexSet() {
		did, err := ti.idx.MaintainOnce()
		if err != nil {
			return worked, err
		}
		worked = worked || did
	}
	return worked, nil
}

// lastGroomTS returns the snapshot boundary: the largest beginTS any
// groomed version can carry. Queries at this timestamp see everything
// groomed so far ("quorum-readable" content, §2.1).
func (e *shard) lastGroomTS() types.TS { return e.zone.Load().lastGroomTS }

// close closes the index set, flushes any buffered
// commit-log batch and writes the clean-shutdown marker (so an orderly
// restart can skip log replay). The teardown holds indexMu so it
// serializes against an in-flight createIndex: either the create
// publishes first (and its index is closed here) or it observes closed
// under the lock and aborts — no created index is left open after
// close. close after close is a no-op.
func (e *shard) close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	first := e.closeWAL()
	e.indexMu.Lock()
	defer e.indexMu.Unlock()
	for _, ti := range e.indexSet() {
		if err := ti.idx.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// safeReclaimBoundary returns the smallest groomed block ID that may
// still be referenced by any index of the set: the minimum over all
// indexes of their evolve watermark and their oldest live groomed run.
// Deprecated blocks below the boundary are unreachable from every index
// and safe to delete (§5.4, generalized to N indexes).
func (e *shard) safeReclaimBoundary() uint64 {
	safe := ^uint64(0)
	for _, ti := range e.indexSet() {
		s := ti.idx.MaxCoveredGroomedID() + 1
		if min, ok := ti.idx.MinLiveGroomedBlock(); ok && min < s {
			s = min
		}
		if s < safe {
			safe = s
		}
	}
	return safe
}

// recoverState rebuilds engine state from storage after a restart: the
// first zone version (PSN and the consumed-block boundary from the psn
// metas, the groom cycle and the pending/deprecated split from the
// groomed block listing, the endTS overrides from the sidecar objects)
// — and any index run a crash lost between a groom's block write and its
// per-index run builds.
func (e *shard) recoverState() error {
	prefix := "tbl/" + e.table.Name

	// PSN metas first: they are the truth of what post-grooming consumed
	// (groomed side) and published (post-groomed side).
	psnNames, err := e.store.List(prefix + "/psn/")
	if err != nil {
		return err
	}
	v := &zoneVersion{}
	for _, n := range psnNames {
		var id uint64
		if _, err := fmt.Sscanf(n, prefix+"/psn/%d", &id); err != nil {
			continue
		}
		if psn := types.PSN(id); psn > v.maxPSN {
			v.maxPSN = psn
		}
		// Published post blocks come from the PSN metas, not the raw post/
		// listing: a post-groom that failed after writing some blocks
		// leaves orphans that no meta (and no index run) references, and
		// the executor must not scan them. A meta that exists but does
		// not decode is a hard error — silently skipping it would leave
		// the executor's block list incomplete while the index still
		// serves the rows (the indexer treats the same failure as fatal).
		meta, err := e.store.Get(n)
		if err != nil {
			return err
		}
		_, hi, blocks, err := decodePSNMeta(meta)
		if err != nil {
			return fmt.Errorf("wildfire: recovering PSN meta %s: %w", n, err)
		}
		if hi > v.consumedHi {
			v.consumedHi = hi
		}
		for _, id := range blocks {
			v.post = append(v.post, &postBlock{id: id})
		}
	}

	// Groomed blocks: those beyond the consumed boundary go back into the
	// pending queue; consumed ones are deprecated until every index of
	// the set has passed them, and deleted once none can reference them.
	names, err := e.store.List(prefix + "/groomed/")
	if err != nil {
		return err
	}
	// The groom clock must never run backwards: reclaimed blocks leave no
	// storage object, so after a quiescent shutdown (everything consumed
	// and deleted) the listing alone would restart the clock at 0 and new
	// grooms would reuse block IDs and beginTS ranges below post-groomed
	// versions. consumedHi floors it at the highest ID ever consumed.
	maxCycle := v.consumedHi
	safe := e.safeReclaimBoundary()
	for _, n := range names {
		var id uint64
		if _, err := fmt.Sscanf(n, prefix+"/groomed/block-%d", &id); err != nil {
			continue
		}
		if id > maxCycle {
			maxCycle = id
		}
		switch {
		case id > v.consumedHi:
			// Not yet post-groomed: back into the pending queue.
			v.pending = append(v.pending, id)
		case id < safe:
			// Deprecated and unreferenced by every index: an interrupted
			// deletion.
			_ = e.store.Delete(n)
		default:
			// Deprecated but still referenced by some index's groomed
			// runs or lagging watermark; retired by a later evolve.
			e.deprecated[id] = struct{}{}
		}
	}
	e.groomCycle.Store(maxCycle)
	v.lastGroomTS = types.MakeTS(maxCycle, 1<<24-1)

	// The endTS overrides of the published post-grooms. A sidecar above
	// maxPSN is the leftover of a post-groom that failed before its PSN
	// meta; the retry under that PSN replaces it. Stores publish objects
	// atomically, so a sidecar that does not read back is corruption,
	// not a torn write.
	endNames, err := e.store.List(prefix + "/endts/")
	if err != nil {
		return err
	}
	var updates []endTSUpdate
	for _, n := range endNames {
		var psn uint64
		if _, err := fmt.Sscanf(n, prefix+"/endts/%d", &psn); err != nil || types.PSN(psn) > v.maxPSN {
			continue
		}
		data, err := e.store.Get(n)
		var sidecar []endTSUpdate
		if err == nil {
			sidecar, err = decodeEndTSSidecar(data)
		}
		if err != nil {
			return fmt.Errorf("wildfire: recovering endTS sidecar %s: %w", n, err)
		}
		updates = append(updates, sidecar...)
	}
	v.endTS = withEndTSOverrides(v.endTS, updates)
	e.zone.Store(v)

	postNames, err := e.store.List(prefix + "/post/")
	if err != nil {
		return err
	}
	var maxPost uint64
	for _, n := range postNames {
		var id uint64
		if _, err := fmt.Sscanf(n, prefix+"/post/block-%d", &id); err != nil {
			continue
		}
		if id > maxPost {
			maxPost = id
		}
	}
	e.postBlockSeq.Store(maxPost)

	// A groom writes its data block first and then builds one run per
	// index; a crash in between leaves pending blocks some index has no
	// run for. Re-derive the lost runs from the data blocks (§5.5's one
	// exception to "no run is rebuilt from data blocks").
	return e.rebuildLostRuns()
}

// rebuildLostRuns re-creates per-index runs for pending groomed blocks
// an index does not cover.
func (e *shard) rebuildLostRuns() error {
	for _, id := range e.zone.Load().pending {
		for _, ti := range e.indexSet() {
			if ti.idx.CoversGroomedBlock(id) {
				continue
			}
			entries, err := e.entriesFromBlocks(ti, types.ZoneGroomed, []uint64{id})
			if err != nil {
				return err
			}
			if err := ti.idx.RebuildGroomedRun(entries, types.BlockRange{Min: id, Max: id}); err != nil {
				return err
			}
		}
	}
	return nil
}
