package core

import (
	"bytes"
	"fmt"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// EntrySource yields the index entries of one build operation. BuildRun
// accepts a slice; the wildfire groomer converts groomed blocks to entries.
type EntrySource = []run.Entry

// BuildRun performs the index build of §5.2: it sorts the entries of a
// newly groomed block range into a level-0 run, persists it to shared
// storage (level 0 is always persisted, §6.1), writes it through to the
// SSD cache when below the current cached level, and atomically publishes
// it at the head of the groomed run list.
//
// blocks is the range of groomed block IDs the entries come from; it must
// be adjacent to and after the ranges already indexed.
func (ix *Index) BuildRun(entries []run.Entry, blocks types.BlockRange) error {
	if ix.closed.Load() {
		return fmt.Errorf("core: index closed")
	}
	if len(entries) == 0 {
		return nil // an empty groom cycle produces no run
	}
	meta := run.Meta{Zone: types.ZoneGroomed, Level: 0, Blocks: blocks}
	ref, err := ix.buildAndPersist(entries, meta, true)
	if err != nil {
		return err
	}
	ix.groomed.prepend(ref)
	ix.stats.Builds.Add(1)
	return nil
}

// MakeEntry encodes one index entry from column values; a convenience for
// callers that do not want to deal with the run package directly.
func (ix *Index) MakeEntry(eq, sortv, incl []keyenc.Value, ts types.TS, rid types.RID) (run.Entry, error) {
	return run.MakeEntry(ix.rdef, eq, sortv, incl, ts, rid)
}

// buildAndPersist serializes entries into a run and returns its list node.
// When persist is false the run lives only in memory (non-persisted
// levels, §6.1).
func (ix *Index) buildAndPersist(entries []run.Entry, meta run.Meta, persist bool) (*runRef, error) {
	b, err := run.NewBuilder(ix.rdef, meta, ix.cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		b.Add(e)
	}
	return ix.finishBuilder(b, meta, persist)
}

// finishBuilder completes a populated run builder: serialize, persist,
// write through the SSD cache, and wrap as a list node.
func (ix *Index) finishBuilder(b *run.Builder, meta run.Meta, persist bool) (*runRef, error) {
	data, h, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if !persist {
		ref := ix.newRunRef("", h, data)
		return ref, nil
	}
	name := ix.nextRunName(meta.Zone, int(meta.Level), meta.Blocks)
	if err := ix.store.Put(name, data); err != nil {
		return nil, fmt.Errorf("core: persisting run: %w", err)
	}
	ref := ix.newRunRef(name, h, nil)
	// Write-through cache policy (§6.2): new runs below the current
	// cached level go straight into the SSD cache.
	if ix.cache != nil && int(meta.Level) <= int(ix.cachedLevel.Load()) {
		// Each block is cached as its own copy: the cache evicts block by
		// block, and a slice of data would keep the whole object resident
		// for as long as one of its blocks is.
		for i, bi := range h.BlockIndex {
			ix.cache.Put(storage.BlockKey{Object: name, Block: uint32(i)}, bytes.Clone(data[bi.Off:bi.Off+uint64(bi.Len)]), false)
		}
	} else if ix.cache != nil {
		ref.purged.Store(true)
	}
	return ref, nil
}
