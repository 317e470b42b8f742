package wildfire

import (
	"fmt"
	"slices"
	"time"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
)

// groomCount performs one groom operation (§2.1): it drains the shard's
// committed log in commit-time order, resolves concurrent
// updates to the same key by last-writer-wins (the later commit gets the
// larger beginTS, so queries reconcile to it), assigns monotonically
// increasing beginTS values whose high part is the groom cycle and low
// part the commit order, writes one columnar groomed block to shared
// storage, and builds an index run over it (§5.2).
//
// It returns the number of records groomed; zero means the live zone was
// empty and no block or run was produced.
func (e *shard) groomCount() (int, error) {
	if e.closed.Load() {
		return 0, fmt.Errorf("wildfire: engine closed")
	}
	e.writerMu.Lock()
	defer e.writerMu.Unlock()
	start := time.Now()

	recs := e.drainLive()
	if len(recs) == 0 {
		return 0, nil
	}

	// A groom that fails after draining must not lose the records: they
	// are acknowledged (and durable per the sync policy). Requeue them so
	// a later groom retries; the watermark cannot pass them because their
	// sequences are only marked drained on success.
	groomed := false
	defer func() {
		if !groomed {
			e.requeue(recs)
		}
	}()

	cycle := e.groomCycle.Add(1)
	schema, err := e.table.blockSchema()
	if err != nil {
		return 0, err
	}
	builder := columnar.NewBuilder(schema)
	// One run per index per groom cycle (§5.2, fanned out to the set):
	// every index — primary and secondaries — gets entries for every
	// record of the cycle, so no index ever lags the groomed zone.
	indexes := e.indexSet()
	perIndex := make([][]run.Entry, len(indexes))
	for x := range perIndex {
		perIndex[x] = make([]run.Entry, 0, len(recs))
	}

	for i, rec := range recs {
		if i >= 1<<24 {
			return 0, fmt.Errorf("wildfire: groom cycle exceeds %d records", 1<<24)
		}
		beginTS := types.MakeTS(cycle, uint32(i))
		rid := types.RID{Zone: types.ZoneGroomed, Block: cycle, Offset: uint32(i)}

		// Hidden columns: endTS is unknown (open version) and prevRID is
		// resolved later by the post-groomer (§2.1).
		full := append(append(Row{}, rec.row...),
			keyenc.U64(uint64(beginTS)),
			keyenc.U64(uint64(types.MaxTS)),
			keyenc.Raw(nil),
		)
		if err := builder.Append(full); err != nil {
			return 0, err
		}

		for x, ti := range indexes {
			entry, err := ti.entryForRow(rec.row, beginTS, rid)
			if err != nil {
				return 0, err
			}
			perIndex[x] = append(perIndex[x], entry)
		}
	}

	blk := builder.Build()
	name := groomedBlockName(e.table.Name, cycle)
	if err := e.store.Put(name, blk.Marshal()); err != nil {
		return 0, err
	}
	e.cacheBlock(name, blk)

	// The groomer also builds indexes over the groomed data (§2.1). A
	// failure partway leaves some indexes without the run; recovery
	// re-derives lost runs from the data block (rebuildLostRuns).
	for x, ti := range indexes {
		if err := ti.idx.BuildRun(perIndex[x], types.BlockRange{Min: cycle, Max: cycle}); err != nil {
			return 0, err
		}
	}

	// Publish the block and the new snapshot boundary in the version that
	// drops the records from grooming: all versions of this cycle are now
	// quorum-readable.
	groomed = true
	e.publish(func(v *zoneVersion) {
		v.grooming = nil
		v.pending = append(slices.Clip(v.pending), cycle)
		v.lastGroomTS = types.MakeTS(cycle, 1<<24-1)
	})

	// The records just became visible at the groomed snapshot: close the
	// commit-ack -> groomed-visibility freshness window of each (replayed
	// rows carry no ack time and are skipped).
	now := time.Now().UnixNano()
	for _, rec := range recs {
		if rec.ack > 0 {
			e.mx.freshness.Observe(now - rec.ack)
		}
	}
	e.mx.groomCycles.Inc()
	e.mx.groomRows.Observe(int64(len(recs)))
	e.mx.groomDuration.ObserveSince(start)

	// The data block and every index run have landed, so the commit log
	// up to this cycle's sequences is consumed: advance the watermark
	// (gaps pin it), persist it, and reclaim wholly-consumed segments.
	seqs := make([]uint64, len(recs))
	for i, rec := range recs {
		seqs[i] = rec.commitSeq
	}
	mark := e.noteGroomedSeqs(seqs)
	if err := e.publishWalMark(mark, cycle); err != nil {
		return len(recs), err
	}
	return len(recs), nil
}

// alignGroomCycle fast-forwards the groom clock to at least cycle
// without writing a block or a run — an empty groom. The sharding layer
// uses it to keep shard snapshot clocks in lockstep: after a groom round
// the shards that had nothing to groom advance to the round's cycle, so
// a cross-shard snapshot timestamp cuts every shard at the same groom
// boundary. Skipped cycle numbers are legal everywhere block IDs appear:
// recovery takes the maximum over existing blocks, and post-groom block
// ranges simply cover IDs that carry no data.
func (e *shard) alignGroomCycle(cycle uint64) {
	e.writerMu.Lock()
	defer e.writerMu.Unlock()
	if e.groomCycle.Load() >= cycle {
		return
	}
	e.groomCycle.Store(cycle)
	e.publish(func(v *zoneVersion) { v.lastGroomTS = types.MakeTS(cycle, 1<<24-1) })
}
