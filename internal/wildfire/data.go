package wildfire

import (
	"context"
	"fmt"
	"slices"

	"umzi/internal/columnar"
	"umzi/internal/types"
)

// Data-block access path: groomed and post-groomed blocks are immutable
// columnar objects in shared storage; the engine reads them through a
// bounded decoded-block cache (the engine-side analogue of the SSD data
// cache of Figure 1, with a byte budget instead of a device size).

// fetchBlock returns the parsed columnar block with the given object
// name, reading through the block cache. Concurrent misses for one name
// collapse into a single storage read and parse (singleflight). The
// context is checked before paying for a shared-storage read, so
// cancelled queries stop at block granularity — the unit of I/O —
// without a partial-parse state to clean up. A retired groomed block
// stays in storage until every query that could hold its RIDs has
// drained (reclaimDeprecated).
func (e *shard) fetchBlock(ctx context.Context, name string) (*columnar.Block, error) {
	return e.blocks.getOrFetch(ctx, name, func() (*columnar.Block, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, err := e.store.Get(name)
		if err != nil {
			return nil, err
		}
		blk, err := columnar.Unmarshal(data)
		if err != nil {
			return nil, fmt.Errorf("wildfire: corrupt block %s: %w", name, err)
		}
		return blk, nil
	})
}

// cacheBlock pre-populates the cache with a block the engine just built
// (groom and post-groom both write the object and keep the decode hot).
func (e *shard) cacheBlock(name string, blk *columnar.Block) {
	e.blocks.put(name, blk)
}

// Record is a fully resolved record version: the user row plus the hidden
// multi-version columns.
type Record struct {
	Row     Row
	BeginTS types.TS
	EndTS   types.TS // MaxTS while the version is current
	PrevRID types.RID
	RID     types.RID
}

// fetch resolves an RID to its record (§2.1 footnote 2: an RID is
// the combination of zone, block ID and record offset). The endTS
// overrides of the current zone version are applied on the way out. A
// cancelled context stops the block fetch before it reaches shared
// storage.
func (e *shard) fetch(ctx context.Context, rid types.RID) (Record, error) {
	var name string
	switch rid.Zone {
	case types.ZoneGroomed:
		name = groomedBlockName(e.table.Name, rid.Block)
	case types.ZonePostGroomed:
		name = postBlockName(e.table.Name, rid.Block)
	default:
		return Record{}, fmt.Errorf("wildfire: cannot fetch RID %v (live zone has no blocks)", rid)
	}
	blk, err := e.fetchBlock(ctx, name)
	if err != nil {
		return Record{}, err
	}
	if int(rid.Offset) >= blk.NumRows() {
		return Record{}, fmt.Errorf("wildfire: RID %v beyond block size %d", rid, blk.NumRows())
	}
	nUser := len(e.table.Columns)
	row := make(Row, nUser)
	for c := 0; c < nUser; c++ {
		row[c] = blk.Value(int(rid.Offset), c)
	}
	rec := Record{
		Row:     row,
		BeginTS: types.TS(blk.Value(int(rid.Offset), nUser).Uint()),
		EndTS:   types.TS(blk.Value(int(rid.Offset), nUser+1).Uint()),
		RID:     rid,
	}
	if prevEnc := blk.Value(int(rid.Offset), nUser+2).Bytes(); len(prevEnc) == types.RIDSize {
		if prev, err := types.DecodeRID(prevEnc); err == nil {
			rec.PrevRID = prev
		}
	}
	// Apply the version's endTS overrides (only post-groomed versions
	// have them).
	if rid.Zone == types.ZonePostGroomed {
		ovs := e.zone.Load().endTS[rid.Block]
		if i, ok := slices.BinarySearchFunc(ovs, rid.Offset, cmpOverrideOffset); ok {
			rec.EndTS = ovs[i].ts
		}
	}
	return rec, nil
}
