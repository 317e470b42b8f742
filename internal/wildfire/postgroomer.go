package wildfire

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// postGroom performs one post-groom operation (§2.1): it takes every
// groomed block not yet post-groomed, uses the post-groomed portion of
// the index to collect the RIDs of the already-post-groomed records that
// the new records replace, sets prevRID on the new copies and endTS on
// the replaced ones, re-organizes the records by partition key into
// larger post-groomed blocks, and publishes the operation's metadata
// under the next PSN for the indexer to pick up asynchronously
// (Figure 5). It returns the PSN published, or 0 when there was nothing
// to post-groom.
//
// Version chains within the batch are resolved locally: when several
// versions of one key migrate together, each points at its in-batch
// predecessor's new RID and carries the matching endTS directly in the
// block. Only the oldest in-batch version consults the index, and only
// its replaced predecessor — living in an older, immutable post-groomed
// block — needs the endTS sidecar (shared storage forbids in-place
// updates; Wildfire versions this metadata similarly).
func (e *shard) postGroom() (types.PSN, error) {
	if e.closed.Load() {
		return 0, fmt.Errorf("wildfire: engine closed")
	}
	e.writerMu.Lock()
	defer e.writerMu.Unlock()

	// The prevRID lookups below read the post-groomed index portion, so
	// earlier post-grooms must be indexed first (the indexer applies
	// evolves in PSN order; see §5.4).
	if err := e.syncIndexLocked(); err != nil {
		return 0, err
	}

	// The batch is every pending block, consumed only at commit: a
	// post-groom that fails partway publishes nothing and the next
	// operation retries the same batch.
	cur := e.zone.Load()
	blocks := cur.pending
	if len(blocks) == 0 {
		return 0, nil
	}
	lo, hi := blocks[0], blocks[len(blocks)-1]

	psn := cur.maxPSN + 1

	// Pass 1: read the groomed blocks and bucket rows by partition key,
	// remembering each row's destination.
	type rowVersion struct {
		row     Row
		beginTS types.TS
		prevRID types.RID
		endTS   types.TS
		bucket  int
		offset  int
	}
	buckets := make([][]*rowVersion, e.partitions)
	byKey := map[string][]*rowVersion{}

	for _, id := range blocks {
		blk, err := e.fetchBlock(context.Background(), groomedBlockName(e.table.Name, id))
		if err != nil {
			return 0, fmt.Errorf("wildfire: post-groom reading block %d: %w", id, err)
		}
		nUser := len(e.table.Columns)
		for r := 0; r < blk.NumRows(); r++ {
			row := make(Row, nUser)
			for c := 0; c < nUser; c++ {
				row[c] = blk.Value(r, c)
			}
			rv := &rowVersion{
				row:     row,
				beginTS: types.TS(blk.Value(r, nUser).Uint()),
				endTS:   types.MaxTS,
			}
			rv.bucket = e.partitionOf(row)
			rv.offset = len(buckets[rv.bucket])
			buckets[rv.bucket] = append(buckets[rv.bucket], rv)
			pk := e.table.pkEncoding(row)
			byKey[pk] = append(byKey[pk], rv)
		}
	}

	// Allocate the new block IDs so in-batch RIDs are known up front.
	blockID := make([]uint64, e.partitions)
	for b := range buckets {
		if len(buckets[b]) > 0 {
			blockID[b] = e.postBlockSeq.Add(1)
		}
	}
	newRID := func(rv *rowVersion) types.RID {
		return types.RID{Zone: types.ZonePostGroomed, Block: blockID[rv.bucket], Offset: uint32(rv.offset)}
	}

	// Pass 2: resolve version chains. Versions of one key are in beginTS
	// order within the batch (grooms assign monotonic beginTS and blocks
	// were read oldest-first). prevRID lookups go through the primary
	// index: only it maps a primary key to the row's post-groomed RID.
	primary := e.indexSet()[0]
	var endTSUpdates []endTSUpdate
	for _, chain := range byKey {
		slices.SortFunc(chain, func(a, b *rowVersion) int { return cmp.Compare(a.beginTS, b.beginTS) })
		for i, rv := range chain {
			if i > 0 {
				prev := chain[i-1]
				rv.prevRID = newRID(prev)
				prev.endTS = rv.beginTS
				continue
			}
			// Oldest in-batch version: its predecessor, if any, lives in
			// an older post-groomed block (§2.1).
			if rv.beginTS == 0 {
				continue
			}
			prev, found, err := e.idx.PointLookupPostGroomed(primary.rowEq(rv.row), primary.rowSort(rv.row), rv.beginTS-1)
			if err != nil {
				return 0, err
			}
			if found {
				rv.prevRID = prev.RID
				endTSUpdates = append(endTSUpdates, endTSUpdate{rid: prev.RID, ts: rv.beginTS})
			}
		}
	}

	// Pass 3: write one post-groomed block per non-empty partition
	// bucket; they are larger than groomed blocks, which is the point
	// (§2.1: less frequent post-grooms produce bigger blocks that read
	// better from shared storage).
	schema, err := e.table.blockSchema()
	if err != nil {
		return 0, err
	}
	var writtenIDs []uint64
	var written []*postBlock
	for b, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		builder := columnar.NewBuilder(schema)
		builder.AddBloom(e.bloomOrdinals()...)
		for _, rv := range bucket {
			full := append(append(Row{}, rv.row...),
				keyenc.U64(uint64(rv.beginTS)),
				keyenc.U64(uint64(rv.endTS)),
				keyenc.Raw(types.EncodeRID(nil, rv.prevRID)),
			)
			if err := builder.Append(full); err != nil {
				return 0, err
			}
		}
		blk := builder.Build()
		if err := e.store.Put(postBlockName(e.table.Name, blockID[b]), blk.Marshal()); err != nil {
			return 0, err
		}
		e.cacheBlock(postBlockName(e.table.Name, blockID[b]), blk)
		writtenIDs = append(writtenIDs, blockID[b])
		pb := &postBlock{id: blockID[b]}
		pb.syn.Store(blk.Synopsis())
		written = append(written, pb)
	}

	// Persist the endTS sidecar (no in-place updates on shared storage)
	// in RID order: pass 2 ranged over a map, and the same rows must
	// store the same bytes. A sidecar already under this PSN is the
	// leftover of an attempt that failed before its PSN meta: no version
	// references a sidecar above maxPSN, so it is replaced.
	if len(endTSUpdates) > 0 {
		slices.SortFunc(endTSUpdates, func(a, b endTSUpdate) int {
			return cmp.Or(cmp.Compare(a.rid.Block, b.rid.Block), cmp.Compare(a.rid.Offset, b.rid.Offset))
		})
		name, sidecar := endTSName(e.table.Name, psn), encodeEndTSSidecar(endTSUpdates)
		err := e.store.Put(name, sidecar)
		if errors.Is(err, storage.ErrExists) {
			if err = e.store.Delete(name); err == nil {
				err = e.store.Put(name, sidecar)
			}
		}
		if err != nil {
			return 0, err
		}
	}

	// Persist the PSN metadata, then commit: the written post blocks
	// replace the batch (a prefix of pending, since grooms only append),
	// the overrides join the version and MaxPSN advances for the
	// indexer, in one version.
	meta := encodePSNMeta(lo, hi, writtenIDs)
	if err := e.store.Put(psnMetaName(e.table.Name, psn), meta); err != nil {
		return 0, err
	}
	e.publish(func(v *zoneVersion) {
		v.post = append(slices.Clip(v.post), written...)
		v.pending = v.pending[len(blocks):]
		v.maxPSN = psn
		v.consumedHi = hi
		v.endTS = withEndTSOverrides(v.endTS, endTSUpdates)
	})
	return psn, nil
}

// partitionOf buckets a row by its partition key (hash partitioning); a
// table without a partition key lands everything in bucket 0.
func (e *shard) partitionOf(row Row) int {
	if e.table.PartitionKey == "" || e.partitions <= 1 {
		return 0
	}
	v := row[e.table.colIndex(e.table.PartitionKey)]
	h := keyenc.HashValues([]keyenc.Value{v})
	return int(h % uint64(e.partitions))
}

// endTSUpdate is one sidecar entry: the version at rid was replaced at ts.
type endTSUpdate struct {
	rid types.RID
	ts  types.TS
}

// endTSOverride is one overlay entry of a post-groomed block: the version
// at offset was replaced at ts.
type endTSOverride struct {
	offset uint32
	ts     types.TS
}

func cmpOverrideOffset(o endTSOverride, offset uint32) int { return cmp.Compare(o.offset, offset) }

// withEndTSOverrides returns overlay with the sidecar entries merged in:
// a clone in which every touched block has a fresh sorted slice, or
// overlay itself when there is nothing to merge.
func withEndTSOverrides(overlay map[uint64][]endTSOverride, updates []endTSUpdate) map[uint64][]endTSOverride {
	if len(updates) == 0 {
		return overlay
	}
	next := make(map[uint64][]endTSOverride, len(overlay)+1)
	maps.Copy(next, overlay)
	touched := map[uint64]bool{}
	for _, u := range updates {
		if !touched[u.rid.Block] {
			touched[u.rid.Block] = true
			next[u.rid.Block] = slices.Clone(next[u.rid.Block])
		}
		next[u.rid.Block] = append(next[u.rid.Block], endTSOverride{offset: u.rid.Offset, ts: u.ts})
	}
	for id := range touched {
		slices.SortFunc(next[id], func(a, b endTSOverride) int { return cmpOverrideOffset(a, b.offset) })
	}
	return next
}

// Sidecar wire format: magic "UMZIENDT", u32 count, then per entry the
// 13-byte RID of a post-groomed version and the u64 endTS.
const (
	endTSMagic     = "UMZIENDT"
	endTSEntrySize = types.RIDSize + 8
)

func encodeEndTSSidecar(updates []endTSUpdate) []byte {
	out := make([]byte, 0, 12+len(updates)*endTSEntrySize)
	out = append(out, endTSMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(updates)))
	for _, u := range updates {
		out = types.EncodeRID(out, u.rid)
		out = binary.BigEndian.AppendUint64(out, uint64(u.ts))
	}
	return out
}

// decodeEndTSSidecar rejects anything encodeEndTSSidecar cannot have
// written: bad magic, a count the bytes disagree with, a non-post RID.
func decodeEndTSSidecar(data []byte) ([]endTSUpdate, error) {
	if len(data) < 12 || string(data[:8]) != endTSMagic {
		return nil, fmt.Errorf("wildfire: bad endTS sidecar header")
	}
	n := int(binary.BigEndian.Uint32(data[8:12]))
	if body := len(data) - 12; body != n*endTSEntrySize {
		return nil, fmt.Errorf("wildfire: endTS sidecar declares %d entries in %d bytes", n, body)
	}
	updates := make([]endTSUpdate, n)
	for i := range updates {
		entry := data[12+i*endTSEntrySize:]
		rid, err := types.DecodeRID(entry)
		if err != nil || rid.Zone != types.ZonePostGroomed {
			return nil, fmt.Errorf("wildfire: endTS sidecar entry %d: RID %v is not post-groomed", i, rid)
		}
		updates[i] = endTSUpdate{rid: rid, ts: types.TS(binary.BigEndian.Uint64(entry[types.RIDSize:]))}
	}
	return updates, nil
}

// PSN meta wire format: magic "UMZIPSNM", groomed range lo/hi u64, u32
// block count, block IDs u64 each.
const psnMagic = "UMZIPSNM"

func encodePSNMeta(lo, hi uint64, blocks []uint64) []byte {
	out := make([]byte, 0, 8+16+4+len(blocks)*8)
	out = append(out, psnMagic...)
	out = binary.BigEndian.AppendUint64(out, lo)
	out = binary.BigEndian.AppendUint64(out, hi)
	out = binary.BigEndian.AppendUint32(out, uint32(len(blocks)))
	for _, b := range blocks {
		out = binary.BigEndian.AppendUint64(out, b)
	}
	return out
}

func decodePSNMeta(data []byte) (lo, hi uint64, blocks []uint64, err error) {
	if len(data) < 28 || string(data[:8]) != psnMagic {
		return 0, 0, nil, fmt.Errorf("wildfire: bad PSN meta")
	}
	lo = binary.BigEndian.Uint64(data[8:16])
	hi = binary.BigEndian.Uint64(data[16:24])
	n := int(binary.BigEndian.Uint32(data[24:28]))
	off := 28
	for i := 0; i < n; i++ {
		if off+8 > len(data) {
			return 0, 0, nil, fmt.Errorf("wildfire: truncated PSN meta")
		}
		blocks = append(blocks, binary.BigEndian.Uint64(data[off:]))
		off += 8
	}
	return lo, hi, blocks, nil
}
