package run

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// Physical layout of a serialized run (one immutable storage object):
//
//	[data block 0][data block 1]...[data block B-1][header][footer]
//
// Data block:  [entry 0]...[entry k-1][u32 restart offset × ceil(k/16)][u32 k]
// Entry:       uvarint shared | uvarint suffixLen | suffix
//	            | varint ΔbeginTS | varint RID.Block−Meta.Blocks.Min
//	            | uvarint RID.Offset | uvarint inclLen | incl
// Footer:      u64 headerOff | u32 headerLen | magic "UMZIRUN2"
//
// Entries are sorted on (hash, key, beginTS desc), so neighbours share
// long prefixes: shared/suffix prefix-compress the 8-byte big-endian hash
// followed by the key against the previous entry, and beginTS is a
// zig-zag delta from the previous entry. Every restartInterval-th entry
// of a block is a restart point — shared is 0 and the beginTS delta is
// taken from 0 — and the block's restart table holds its byte offset, so
// a seek binary-searches the restart keys and decodes at most
// restartInterval-1 entries. The RID's zone is not stored: every entry of
// a run lives in the run's zone (Meta.Zone).
//
// The header travels last so the builder can stream data blocks without
// knowing counts up front, exactly like SSTable footers; readers fetch the
// footer, then the header, then individual data blocks on demand.

const (
	runMagic = "UMZIRUN2"
	// FooterSize is the length of the footer that ends every run object;
	// its last 8 bytes are the format magic.
	FooterSize = 8 + 4 + 8

	// restartInterval is the number of entries between restart points.
	restartInterval = 16

	// DefaultBlockSize is the target data-block size. The paper uses
	// fixed-size data blocks; blocks here are sealed at the entry boundary
	// that first reaches the target, so all blocks are within one entry of
	// the target (oversized single-entry blocks excepted).
	DefaultBlockSize = 32 * 1024
)

// Meta is the run-level metadata carried in the header block.
type Meta struct {
	Zone   types.ZoneID
	Level  uint16
	Blocks types.BlockRange // groomed block IDs this run covers (§4.3)
	// PSN records the post-groom sequence number that produced this run
	// (post-groomed zone only; zero elsewhere). Recovery uses the maximum
	// PSN over post-groomed runs to restore IndexedPSN after a crash
	// that lost the meta object write (§5.4–§5.5).
	PSN types.PSN
	// Ancestors lists the storage object names of persisted ancestor runs
	// that must not be deleted until this run (living in a non-persisted
	// level) is merged into a persisted level again (§6.1).
	Ancestors []string
}

// BlockInfo locates one data block inside the run object and carries the
// separators that make ordinal-based binary search possible.
type BlockInfo struct {
	Off       uint64 // byte offset of the block in the object
	Len       uint32 // byte length of the block
	StartOrd  uint64 // ordinal of the block's first entry
	FirstHash uint64 // hash of the block's first entry
	FirstKey  []byte // key of the block's first entry
}

// Header is the parsed header block of a run.
type Header struct {
	Meta       Meta
	Def        Def
	Entries    uint64
	BlockSize  uint32
	DataEnd    uint64 // byte offset where data blocks end (== header offset)
	BlockIndex []BlockInfo
	// OffsetArray[b] is the ordinal of the first entry whose hash prefix
	// (top HashBits bits) is >= b; len == 2^HashBits+1 with the final
	// element equal to Entries, so bucket b spans
	// [OffsetArray[b], OffsetArray[b+1]). Nil when HashBits == 0.
	OffsetArray []uint64
	// SynMin/SynMax hold the per-key-column min/max encoded segments
	// (the synopsis of §4.2). Empty for an empty run.
	SynMin, SynMax [][]byte
}

// Builder accumulates entries and serializes a run. Entries may be added
// in any order; Finish sorts them unless they already are sorted (merge
// output is).
type Builder struct {
	def       Def
	meta      Meta
	blockSize uint32
	entries   []Entry
}

// NewBuilder returns a builder for one run. blockSize <= 0 selects
// DefaultBlockSize.
func NewBuilder(def Def, meta Meta, blockSize int) (*Builder, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Builder{def: def, meta: meta, blockSize: uint32(blockSize)}, nil
}

// Add appends a pre-encoded entry.
func (b *Builder) Add(e Entry) { b.entries = append(b.entries, e) }

// AddValues encodes and appends an entry from raw column values.
func (b *Builder) AddValues(eq, sortv, incl []keyenc.Value, ts types.TS, rid types.RID) error {
	e, err := MakeEntry(b.def, eq, sortv, incl, ts, rid)
	if err != nil {
		return err
	}
	b.Add(e)
	return nil
}

// Len returns the number of entries added so far.
func (b *Builder) Len() int { return len(b.entries) }

// sortEntries sorts the entries by Compare, keeping insertion order among
// ties. It sorts a pointer-free permutation keyed by each entry's hash,
// so most comparisons touch no entry, and then moves every entry once,
// in place, by following the permutation's cycles.
func (b *Builder) sortEntries() {
	type slot struct {
		hash uint64
		i    int
	}
	es := b.entries
	perm := make([]slot, len(es))
	for i := range es {
		perm[i] = slot{es[i].Hash, i}
	}
	slices.SortFunc(perm, func(x, y slot) int {
		if x.hash != y.hash {
			return cmp.Compare(x.hash, y.hash)
		}
		ex, ey := &es[x.i], &es[y.i]
		if c := bytes.Compare(ex.Key, ey.Key); c != 0 {
			return c
		}
		if c := cmp.Compare(ey.BeginTS, ex.BeginTS); c != 0 {
			return c // descending: newer sorts first
		}
		return cmp.Compare(x.i, y.i)
	})
	// Position k takes entry perm[k].i; a visited slot points at itself.
	for s := range perm {
		if perm[s].i == s {
			continue
		}
		tmp := es[s]
		j := s
		for {
			src := perm[j].i
			perm[j].i = j
			if src == s {
				es[j] = tmp
				break
			}
			es[j] = es[src]
			j = src
		}
	}
}

// Finish sorts the entries, serializes the run and returns the raw object
// bytes together with the parsed header (so callers avoid an immediate
// re-parse). The builder must not be reused.
func (b *Builder) Finish() ([]byte, *Header, error) {
	// Index build sorts entries by hash, key columns and descending
	// beginTS (§5.2).
	if !slices.IsSortedFunc(b.entries, Compare) {
		b.sortEntries()
	}

	h := &Header{
		Meta:      b.meta,
		Def:       b.def,
		Entries:   uint64(len(b.entries)),
		BlockSize: b.blockSize,
	}

	keyKinds := b.def.KeyKinds()
	h.SynMin = make([][]byte, len(keyKinds))
	h.SynMax = make([][]byte, len(keyKinds))

	var out []byte
	blockStart := 0
	var restarts []uint32
	inBlock := 0 // entries in the open block

	var prev *Entry // previous entry of the open restart interval

	// seal closes the open block; next is the ordinal after its last entry.
	seal := func(next int) {
		for _, o := range restarts {
			out = binary.BigEndian.AppendUint32(out, o)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(inBlock))
		first := &b.entries[next-inBlock]
		h.BlockIndex = append(h.BlockIndex, BlockInfo{
			Off:       uint64(blockStart),
			Len:       uint32(len(out) - blockStart),
			StartOrd:  uint64(next - inBlock),
			FirstHash: first.Hash,
			FirstKey:  append([]byte(nil), first.Key...),
		})
		blockStart, restarts, inBlock, prev = len(out), restarts[:0], 0, nil
	}

	for i := range b.entries {
		e := &b.entries[i]
		if e.RID.Zone != b.meta.Zone {
			return nil, nil, fmt.Errorf("run: entry %d: RID zone %v in a %v run", i, e.RID.Zone, b.meta.Zone)
		}
		// Synopsis: track min/max per key column (on the order-preserving
		// encodings, so comparisons are raw byte compares).
		err := columnSegments(e.Key, keyKinds, func(col int, seg []byte) {
			if h.SynMin[col] == nil || bytes.Compare(seg, h.SynMin[col]) < 0 {
				h.SynMin[col] = append(h.SynMin[col][:0], seg...)
			}
			if h.SynMax[col] == nil || bytes.Compare(seg, h.SynMax[col]) > 0 {
				h.SynMax[col] = append(h.SynMax[col][:0], seg...)
			}
		})
		if err != nil {
			return nil, nil, fmt.Errorf("run: entry %d: %w", i, err)
		}

		if inBlock%restartInterval == 0 {
			prev = nil
		}
		start := len(out)
		out = b.appendEntry(out, e, prev)
		// Seal the open block first if this entry overflows the target
		// (single oversized entries get their own block); the entry then
		// re-encodes as the next block's first restart point.
		if inBlock > 0 && len(out)-blockStart+blockTailLen(inBlock+1) > int(b.blockSize) {
			out = out[:start]
			seal(i)
			out = b.appendEntry(out, e, nil)
			start = blockStart
		}
		if prev == nil {
			restarts = append(restarts, uint32(start-blockStart))
		}
		inBlock++
		prev = e
	}
	if inBlock > 0 {
		seal(len(b.entries))
	}
	h.DataEnd = uint64(len(out))

	// Offset array (Figure 2b): bucket b -> first ordinal with prefix >= b.
	if b.def.HashBits > 0 {
		n := 1 << b.def.HashBits
		h.OffsetArray = make([]uint64, n+1)
		next := 0
		for i := range b.entries {
			p := int(keyenc.HashPrefix(b.entries[i].Hash, b.def.HashBits))
			for next <= p {
				h.OffsetArray[next] = uint64(i)
				next++
			}
		}
		for ; next <= n; next++ {
			h.OffsetArray[next] = uint64(len(b.entries))
		}
	}

	out = appendHeader(out, h)
	hdrLen := uint32(uint64(len(out)) - h.DataEnd)
	out = binary.BigEndian.AppendUint64(out, h.DataEnd)
	out = binary.BigEndian.AppendUint32(out, hdrLen)
	out = append(out, runMagic...)
	return out, h, nil
}

// blockTailLen is the size of the restart table and entry count that
// close a data block of n entries.
func blockTailLen(n int) int {
	return 4*((n+restartInterval-1)/restartInterval) + 4
}

// appendEntry encodes e against the previous entry of its restart
// interval; prev == nil encodes a restart point.
func (b *Builder) appendEntry(out []byte, e, prev *Entry) []byte {
	var hash [8]byte
	binary.BigEndian.PutUint64(hash[:], e.Hash)
	shared, prevTS := 0, types.TS(0)
	if prev != nil {
		prevTS = prev.BeginTS
		if shared = bits.LeadingZeros64(e.Hash^prev.Hash) / 8; shared == 8 {
			shared += commonPrefix(e.Key, prev.Key)
		}
	}
	out = binary.AppendUvarint(out, uint64(shared))
	out = binary.AppendUvarint(out, uint64(8+len(e.Key)-shared))
	if shared < 8 {
		out = append(out, hash[shared:]...)
		out = append(out, e.Key...)
	} else {
		out = append(out, e.Key[shared-8:]...)
	}
	out = binary.AppendVarint(out, int64(e.BeginTS-prevTS))
	out = binary.AppendVarint(out, int64(e.RID.Block-b.meta.Blocks.Min))
	out = binary.AppendUvarint(out, uint64(e.RID.Offset))
	out = binary.AppendUvarint(out, uint64(len(e.Included)))
	return append(out, e.Included...)
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
