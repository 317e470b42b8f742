package wildfire

import (
	"fmt"

	"umzi/internal/columnar"
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

// SyncIndex applies every published-but-unindexed post-groom operation
// to every index of the set. It is the poll loop body; tests call it
// directly for determinism.
func (e *Engine) SyncIndex() error {
	// Serialized: the indexer daemon and the post-groomer both drive
	// this, and evolves of one index must arrive in PSN order.
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	for _, ti := range e.indexSet() {
		for {
			indexed := ti.idx.IndexedPSN()
			if indexed >= e.MaxPSN() {
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
func (e *Engine) evolveOne(ti *tableIndex, psn types.PSN) error {
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
// deprecated and deletes every deprecated block the whole index set has
// passed. "Deprecated and eventually deleted" (§5.4) has three
// conditions here:
//
//   - every index's evolve watermark must cover the block — a lagging
//     secondary still serves queries from its groomed runs over it;
//   - no live groomed run of any index may still reference it — merged
//     runs can span ranges evolve only partially covered, and their
//     entries hand out RIDs into low blocks until they are GC'd;
//   - in-flight queries that already resolved a groomed RID keep the
//     block readable through the engine block cache until their query
//     epoch drains (epoch-based reclamation).
func (e *Engine) reclaimDeprecated(lo, hi uint64) {
	e.deprecateMu.Lock()
	for id := lo; id <= hi; id++ {
		e.deprecated[id] = struct{}{}
	}
	safe := e.safeReclaimBoundary()
	var retire []string
	for id := range e.deprecated {
		if id < safe {
			retire = append(retire, groomedBlockName(e.table.Name, id))
			delete(e.deprecated, id)
		}
	}
	e.deprecateMu.Unlock()
	if len(retire) == 0 {
		return
	}

	// The storage objects can go immediately: current and future queries
	// reach retired blocks only through the retired overlay (no index
	// hands out their RIDs to queries starting after this point, and
	// recovery cannot resurrect references to them thanks to the safe
	// rule above). Each decode is pinned into the overlay before its
	// object is deleted — the bounded cache may have evicted it, and an
	// in-flight query must still be able to read it until its query
	// epoch drains.
	for _, name := range retire {
		e.holdRetired(name)
		_ = e.store.Delete(name)
		e.blocks.drop(name)
	}
	e.retireCacheEntries(retire)
}

// holdRetired pins the named block's decode into the retired overlay,
// reading it back from storage when the bounded cache no longer holds
// it. A block that is gone from both (unreadable object) is skipped: no
// in-flight query can have fetched it either.
func (e *Engine) holdRetired(name string) {
	blk, ok := e.blocks.get(name)
	if !ok {
		data, err := e.store.Get(name)
		if err != nil {
			return
		}
		if blk, err = columnar.Unmarshal(data); err != nil {
			return
		}
	}
	e.retireMu.Lock()
	e.retiredBlks[name] = blk
	e.retireMu.Unlock()
}

// retireItem is one retired block awaiting query-epoch drain.
type retireItem struct {
	name string
	tag  uint64
}

// retireCacheEntries queues the deleted blocks and releases every
// queued entry whose tag epoch has drained from the retired overlay.
func (e *Engine) retireCacheEntries(names []string) {
	e.retireMu.Lock()
	now := e.gate.current()
	for _, n := range names {
		e.retireQueue = append(e.retireQueue, retireItem{name: n, tag: now})
	}
	e.gate.tryAdvance()
	cur := e.gate.current()
	keep := e.retireQueue[:0]
	for _, it := range e.retireQueue {
		if it.tag+2 <= cur {
			delete(e.retiredBlks, it.name)
		} else {
			keep = append(keep, it)
		}
	}
	e.retireQueue = keep
	e.retireMu.Unlock()
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
