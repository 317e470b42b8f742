package wildfire

import (
	"fmt"

	"umzi/internal/core"
	"umzi/internal/types"
)

// The indexer side of Figure 5, generalized to the index set: each index
// tracks its own IndexedPSN and the indexer polls the post-groomer's
// MaxPSN; whenever an index lags it performs evolve operations for that
// index strictly in PSN order and lets it persist its watermark.
// Asynchrony is safe because a post-groom only copies data between zones
// — a query finds the same record through either zone's RID until the
// groomed blocks are dropped, and dropping is gated on EVERY index
// having passed the block.

// syncIndex applies every published-but-unindexed post-groom operation
// to every index of the set, then deletes the retired blocks whose query
// epoch has drained. It is the last step of the propagation owner;
// tests call it directly for determinism.
func (e *shard) syncIndex() error {
	e.writerMu.Lock()
	defer e.writerMu.Unlock()
	return e.syncIndexLocked()
}

// syncIndexLocked is syncIndex for callers that hold writerMu; evolves of
// one index arrive in PSN order because writerMu serializes them.
func (e *shard) syncIndexLocked() error {
	defer e.releaseRetired()
	for _, ti := range e.indexSet() {
		for {
			indexed := ti.idx.IndexedPSN()
			if indexed >= e.zone.Load().maxPSN {
				break
			}
			if err := e.evolveOne(ti, indexed+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// evolveOne builds one index's entries for one post-groom operation and
// hands them to that index's evolve, then retires whatever deprecated
// groomed blocks the whole set has passed.
func (e *shard) evolveOne(ti *tableIndex, psn types.PSN) error {
	meta, err := e.store.Get(psnMetaName(e.table.Name, psn))
	if err != nil {
		return fmt.Errorf("wildfire: reading PSN %d meta: %w", psn, err)
	}
	lo, hi, blockIDs, err := decodePSNMeta(meta)
	if err != nil {
		return err
	}

	entries, err := e.entriesFromBlocks(ti, types.ZonePostGroomed, blockIDs)
	if err != nil {
		return fmt.Errorf("wildfire: evolve PSN %d: %w", psn, err)
	}

	if err := ti.idx.Evolve(psn, entries, types.BlockRange{Min: lo, Max: hi}); err != nil {
		return err
	}
	e.reclaimDeprecated(lo, hi)
	return nil
}

// reclaimDeprecated marks the groomed blocks a post-groom consumed as
// deprecated and retires every deprecated block the whole index set has
// passed. "Deprecated and eventually deleted" (§5.4) has three
// conditions here:
//
//   - every index's evolve watermark must cover the block — a lagging
//     secondary still serves queries from its groomed runs over it;
//   - no live groomed run of any index may still reference it — merged
//     runs can span ranges evolve only partially covered, and their
//     entries hand out RIDs into low blocks until they are GC'd;
//   - in-flight queries that already resolved a groomed RID can still
//     read the block: a retired block is deleted only once its query
//     epoch drains (epoch-based reclamation, releaseRetired).
func (e *shard) reclaimDeprecated(lo, hi uint64) {
	for id := lo; id <= hi; id++ {
		e.deprecated[id] = struct{}{}
	}
	safe := e.safeReclaimBoundary()
	tag := e.gate.current()
	for id := range e.deprecated {
		if id < safe {
			e.retireQueue = append(e.retireQueue, retireItem{name: groomedBlockName(e.table.Name, id), tag: tag})
			delete(e.deprecated, id)
		}
	}
}

// retireItem is one retired block awaiting query-epoch drain.
type retireItem struct {
	name string
	tag  uint64
}

// releaseRetired deletes the storage object and the cached decode of
// every retired block whose epoch has drained. No index hands out RIDs
// into a retired block to a query that starts after its retirement, so
// once the queries of its tag epoch have exited nothing can read it.
// With no query in flight the epoch advances twice and everything
// queued goes at once.
func (e *shard) releaseRetired() {
	if e.gate.tryAdvance() {
		e.gate.tryAdvance()
	}
	cur := e.gate.current()
	keep := e.retireQueue[:0]
	for _, it := range e.retireQueue {
		if it.tag+2 > cur {
			keep = append(keep, it)
			continue
		}
		_ = e.store.Delete(it.name)
		e.blocks.drop(it.name)
	}
	e.retireQueue = keep
}

// indexDefFor lowers an IndexSpec to the core index definition.
func indexDefFor(t TableDef, s IndexSpec) core.IndexDef {
	def := core.IndexDef{HashBits: s.HashBits}
	for _, c := range s.Equality {
		def.Equality = append(def.Equality, core.Column{Name: c, Kind: t.Columns[t.colIndex(c)].Kind})
	}
	for _, c := range s.Sort {
		def.Sort = append(def.Sort, core.Column{Name: c, Kind: t.Columns[t.colIndex(c)].Kind})
	}
	for _, c := range s.Included {
		def.Included = append(def.Included, core.Column{Name: c, Kind: t.Columns[t.colIndex(c)].Kind})
	}
	return def
}
