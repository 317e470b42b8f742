package run

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// BlockSource supplies the raw bytes of a run's data blocks. The core
// package wires sources through the SSD cache and shared storage; tests
// and non-persisted runs use MemSource. Sources must be safe for
// concurrent use.
type BlockSource interface {
	// FetchBlock returns the raw bytes of data block i.
	FetchBlock(i uint32) ([]byte, error)
	// Release tells the source the caller is done with block i (used to
	// unpin query-fetched blocks, §7). Implementations may ignore it.
	Release(i uint32)
}

// MemSource serves blocks from an in-memory copy of the whole run object.
// Non-persisted runs (§6.1) and unit tests use it.
type MemSource struct {
	Data   []byte
	Blocks []BlockInfo
}

// NewMemSource builds a MemSource from a serialized run object and its
// parsed header.
func NewMemSource(data []byte, h *Header) *MemSource {
	return &MemSource{Data: data, Blocks: h.BlockIndex}
}

// FetchBlock implements BlockSource.
func (s *MemSource) FetchBlock(i uint32) ([]byte, error) {
	if int(i) >= len(s.Blocks) {
		return nil, fmt.Errorf("run: block %d out of range (%d blocks)", i, len(s.Blocks))
	}
	bi := s.Blocks[i]
	end := bi.Off + uint64(bi.Len)
	if end > uint64(len(s.Data)) {
		return nil, fmt.Errorf("run: block %d extends past object end", i)
	}
	return s.Data[bi.Off:end], nil
}

// Release implements BlockSource (no-op).
func (s *MemSource) Release(uint32) {}

// Reader provides sorted access to one immutable run.
type Reader struct {
	h   *Header
	src BlockSource
}

// NewReader wraps a parsed header and a block source.
func NewReader(h *Header, src BlockSource) *Reader {
	return &Reader{h: h, src: src}
}

// OpenObject parses a complete serialized run held in memory and returns a
// reader over it.
func OpenObject(data []byte) (*Reader, error) {
	h, err := ParseObject(data)
	if err != nil {
		return nil, err
	}
	return NewReader(h, NewMemSource(data, h)), nil
}

// Header returns the run's parsed header.
func (r *Reader) Header() *Header { return r.h }

// Entries returns the number of entries in the run.
func (r *Reader) Entries() uint64 { return r.h.Entries }

// block is a fetched data block split into its entry bytes and restart
// table.
type block struct {
	idx      int    // index in the header's block index; -1 for none
	start    uint64 // ordinal of the first entry
	count    int    // entries in the block
	data     []byte // encoded entries
	restarts []byte // u32 byte offset per restart point
}

// openBlock splits a data block, checking its tail against the entry
// count the header declares for it.
func (r *Reader) openBlock(idx int, raw []byte) (block, error) {
	start, end := r.h.BlockIndex[idx].StartOrd, r.h.Entries
	if idx+1 < len(r.h.BlockIndex) {
		end = r.h.BlockIndex[idx+1].StartOrd
	}
	count := int(end - start)
	tail := blockTailLen(count)
	if len(raw) < tail || binary.BigEndian.Uint32(raw[len(raw)-4:]) != uint32(count) {
		return block{}, fmt.Errorf("run: block %d does not hold the %d entries its header declares", idx, count)
	}
	n := len(raw) - tail
	return block{idx: idx, start: start, count: count, data: raw[:n], restarts: raw[n : len(raw)-4]}, nil
}

// restart returns the byte offset of restart point i.
func (b *block) restart(i int) int { return int(binary.BigEndian.Uint32(b.restarts[4*i:])) }

// restartKey returns the hash‖key bytes stored in full at restart point i.
func (b *block) restartKey(i int) ([]byte, error) {
	d := b.data[min(b.restart(i), len(b.data)):]
	shared, n := binary.Uvarint(d)
	l, m := binary.Uvarint(d[max(n, 0):])
	if n <= 0 || m <= 0 || shared != 0 || l < 8 || l > uint64(len(d)-n-m) {
		return nil, fmt.Errorf("run: block %d restart %d: bad key", b.idx, i)
	}
	return d[n+m : n+m+int(l)], nil
}

// blockForOrdinal returns the index of the data block containing the
// entry with the given ordinal.
func (r *Reader) blockForOrdinal(ord uint64) int {
	bi := r.h.BlockIndex
	return sort.Search(len(bi), func(i int) bool { return bi[i].StartOrd > ord }) - 1
}

// SeekGE positions a fresh iterator at the first entry >= (k.Hash, k.Key)
// in entry order, i.e. the first entry of the newest version group whose
// key is >= the bound. The offset array narrows the search exactly as
// §7.1.1 describes.
func (r *Reader) SeekGE(k SearchKey) (*Iter, error) {
	it := r.Begin()
	if err := it.SeekGE(k); err != nil {
		it.Close()
		return nil, err
	}
	return it, nil
}

// Begin returns an iterator positioned at the first entry of the run.
func (r *Reader) Begin() *Iter { return &Iter{r: r, blk: block{idx: -1}} }

// Iter is a cursor over the entries of one run in sorted order. A seek
// costs one block fetch, a binary search over that block's restart keys
// and at most restartInterval-1 sequential decodes; stepping decodes one
// entry from the current position. Iterators are cheap; create one per
// run per query. Not safe for concurrent use.
//
// Decoded entries stay valid after Next and Close: keys are rebuilt into
// append-only arenas that are never rewritten, and included bytes alias
// the immutable block.
type Iter struct {
	r   *Reader
	ord uint64 // ordinal the iterator is positioned on
	err error

	blk block // the data block the iterator holds
	// The decoded position, meaningful while decoded is true: cur is the
	// entry with ordinal curOrd, hk its hash‖key bytes in the arena, next
	// the byte offset in blk of the entry after it.
	decoded bool
	curOrd  uint64
	cur     Entry
	hk      []byte
	next    int
	arena   []byte
}

// arenaChunk is the allocation unit for rebuilt keys.
const arenaChunk = 1024

// SeekGE repositions the iterator, keeping the data block it holds.
// Batched lookups reuse one iterator per run so that sorted keys landing
// in the same data block share one fetch — the mechanism behind §8.3.2's
// "no additional I/O is required to fetch that block again for looking up
// other keys in the batch".
func (it *Iter) SeekGE(k SearchKey) error {
	h := it.r.h
	it.err = nil
	lo, hi := uint64(0), h.Entries
	if h.OffsetArray != nil {
		// Entries of smaller buckets are < k and entries of larger ones
		// > k, so the answer lies in [lo, hi].
		b := keyenc.HashPrefix(k.Hash, h.Def.HashBits)
		lo, hi = h.OffsetArray[b], h.OffsetArray[b+1]
	}
	it.ord = hi
	if lo == hi {
		return nil
	}
	// The last block of the window whose first entry is < k holds the
	// answer, unless everything it holds inside the window is < k.
	bi := h.BlockIndex
	first, last := it.r.blockForOrdinal(lo), it.r.blockForOrdinal(hi-1)
	b := first + sort.Search(last-first, func(i int) bool {
		x := &bi[first+1+i]
		return CompareToSearchKey(Entry{Hash: x.FirstHash, Key: x.FirstKey}, k) >= 0
	})
	if err := it.loadBlock(b); err != nil {
		return it.fail(err)
	}
	// Likewise the last restart point of the window whose key is < k,
	// then forward.
	localLo := int(max(lo, it.blk.start) - it.blk.start)
	localHi := int(min(hi-it.blk.start, uint64(it.blk.count)))
	rLo, rHi := localLo/restartInterval, (localHi-1)/restartInterval
	var err error
	rp := rLo + sort.Search(rHi-rLo, func(i int) bool {
		hk, kerr := it.blk.restartKey(rLo + 1 + i)
		if kerr != nil {
			err = kerr
			return true
		}
		return CompareToSearchKey(Entry{Hash: binary.BigEndian.Uint64(hk), Key: hk[8:]}, k) >= 0
	})
	it.decoded = false
	for local := rp * restartInterval; err == nil && local < localHi; local++ {
		if err = it.decode(local); err == nil && CompareToSearchKey(it.cur, k) >= 0 {
			it.ord = it.curOrd
			return nil
		}
	}
	if err != nil {
		return it.fail(err)
	}
	// Everything the block holds inside the window is < k: the answer is
	// the next block's first entry, or the window's end.
	it.ord = min(it.blk.start+uint64(it.blk.count), hi)
	return nil
}

func (it *Iter) fail(err error) error {
	it.err = err
	return err
}

// loadBlock makes block idx the block the iterator holds.
func (it *Iter) loadBlock(idx int) error {
	if it.blk.idx == idx {
		return nil
	}
	if it.blk.idx >= 0 {
		it.r.src.Release(uint32(it.blk.idx))
		it.blk.idx = -1
	}
	raw, err := it.r.src.FetchBlock(uint32(idx))
	if err != nil {
		return err
	}
	blk, err := it.r.openBlock(idx, raw)
	if err != nil {
		it.r.src.Release(uint32(idx))
		return err
	}
	it.blk = blk
	return nil
}

// position decodes the entry the iterator is positioned on: by stepping
// when it is at most a restart interval ahead of the decoded position,
// otherwise from the restart point of its interval.
func (it *Iter) position() error {
	for !it.decoded || it.curOrd != it.ord {
		target := it.curOrd + 1
		if !it.decoded || it.ord < target || it.ord-it.curOrd > restartInterval {
			if err := it.loadBlock(it.r.blockForOrdinal(it.ord)); err != nil {
				return err
			}
			it.decoded = false
			target = it.ord - (it.ord-it.blk.start)%restartInterval
		} else if target == it.blk.start+uint64(it.blk.count) {
			if err := it.loadBlock(it.blk.idx + 1); err != nil {
				return err
			}
		}
		if err := it.decode(int(target - it.blk.start)); err != nil {
			return err
		}
	}
	return nil
}

// decode decodes the entry at index local of the held block, which must
// be a restart point or follow the decoded position. An entry reached by
// stepping is also checked to sort at or after the one before it.
func (it *Iter) decode(local int) error {
	d, ord := it.blk.data, it.blk.start+uint64(local)
	stepped := it.decoded && it.curOrd+1 == ord
	var prevHK, base []byte
	var prevTS, baseTS types.TS
	if stepped {
		prevHK, prevTS = it.hk, it.cur.BeginTS
	}
	off := it.next
	if local%restartInterval == 0 {
		off = it.blk.restart(local / restartInterval)
		if stepped && local > 0 && off != it.next {
			off = len(d) // the restart table disagrees with the entries
		}
	} else {
		base, baseTS = prevHK, prevTS
	}
	if off >= len(d) {
		return it.corrupt(local, "bad offset")
	}

	rd := varintReader{d: d, p: off}
	shared, suffixLen := rd.uvarint(), rd.uvarint()
	if rd.bad || shared > uint64(len(base)) || suffixLen > uint64(len(d)-rd.p) || shared+suffixLen < 8 {
		return it.corrupt(local, "bad key lengths")
	}
	suffix := d[rd.p : rd.p+int(suffixLen)]
	rd.p += len(suffix)
	order := 1
	if stepped {
		order = bytes.Compare(suffix, prevHK[shared:])
	}
	// Rebuild hash‖key in the arena; a full chunk is left to the entries
	// that reference it.
	if need := int(shared) + len(suffix); cap(it.arena)-len(it.arena) < need {
		it.arena = make([]byte, 0, max(need, arenaChunk))
	}
	at := len(it.arena)
	it.arena = append(append(it.arena, base[:shared]...), suffix...)
	hk := it.arena[at:len(it.arena):len(it.arena)]

	ts := baseTS + types.TS(rd.varint())
	dBlock, offset, inclLen := rd.varint(), rd.uvarint(), rd.uvarint()
	p := rd.p
	if rd.bad || offset > math.MaxUint32 || inclLen > uint64(len(d)-p) {
		return it.corrupt(local, "bad beginTS, RID or included length")
	}
	if order < 0 || (order == 0 && ts > prevTS) {
		return it.corrupt(local, "out of order")
	}

	meta := &it.r.h.Meta
	it.cur = Entry{
		Hash:    binary.BigEndian.Uint64(hk),
		Key:     hk[8:],
		BeginTS: ts,
		RID:     types.RID{Zone: meta.Zone, Block: meta.Blocks.Min + uint64(dBlock), Offset: uint32(offset)},
	}
	if inclLen > 0 {
		it.cur.Included = d[p : p+int(inclLen) : p+int(inclLen)]
	}
	it.hk, it.next, it.curOrd, it.decoded = hk, p+int(inclLen), ord, true
	return nil
}

// corrupt drops the decoded position and reports damaged entry bytes.
func (it *Iter) corrupt(local int, what string) error {
	it.decoded = false
	return fmt.Errorf("run: block %d entry %d: %s", it.blk.idx, local, what)
}

// varintReader reads varints off a byte slice; bad is set once one is
// truncated or overlong.
type varintReader struct {
	d   []byte
	p   int
	bad bool
}

func (r *varintReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.d[r.p:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.p += n
	return v
}

func (r *varintReader) varint() int64 {
	v, n := binary.Varint(r.d[r.p:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.p += n
	return v
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter) Valid() bool { return it.err == nil && it.ord < it.r.h.Entries }

// Err returns the first error the iterator encountered, if any.
func (it *Iter) Err() error { return it.err }

// Entry returns the current entry. Valid must be true.
func (it *Iter) Entry() (Entry, error) {
	if !it.Valid() {
		if it.err != nil {
			return Entry{}, it.err
		}
		return Entry{}, fmt.Errorf("run: iterator exhausted")
	}
	if err := it.position(); err != nil {
		return Entry{}, it.fail(err)
	}
	return it.cur, nil
}

// Next advances to the following entry.
func (it *Iter) Next() { it.ord++ }

// Ordinal returns the current entry ordinal (for tests and debugging).
func (it *Iter) Ordinal() uint64 { return it.ord }

// Close releases the block the iterator holds.
func (it *Iter) Close() {
	if it.blk.idx >= 0 {
		it.r.src.Release(uint32(it.blk.idx))
	}
	it.blk.idx, it.decoded = -1, false
}

// MayContain applies the synopsis check of §7: the run can be skipped if
// some key column's queried range does not overlap the [min,max] range
// recorded in the header. cols maps key-column ordinal to the queried
// bound (encoded ascending); entries with nil Lo/Hi are unconstrained.
type ColumnBound struct {
	Lo, Hi []byte // encoded inclusive bounds; nil = unbounded
}

// MayContain reports whether the run could contain entries matching the
// per-key-column bounds. An empty run matches nothing.
func (r *Reader) MayContain(bounds []ColumnBound) bool {
	return HeaderMayContain(r.h, bounds)
}

// HeaderMayContain is MayContain on a bare header, usable before deciding
// to fetch any data block.
func HeaderMayContain(h *Header, bounds []ColumnBound) bool {
	if h.Entries == 0 {
		return false
	}
	for i, b := range bounds {
		if i >= len(h.SynMin) || h.SynMin[i] == nil {
			continue
		}
		if b.Lo != nil && bytes.Compare(b.Lo, h.SynMax[i]) > 0 {
			return false
		}
		if b.Hi != nil && bytes.Compare(b.Hi, h.SynMin[i]) < 0 {
			return false
		}
	}
	return true
}
