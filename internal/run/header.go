package run

import (
	"encoding/binary"
	"fmt"
	"math"

	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// Header block wire format (every integer a uvarint unless sized):
//
//	magic    "UMZIHDR2"
//	zone     u8
//	level, minID, maxID (groomed block ID range), psn,
//	entries, blockSz, dataEnd
//	nEq u8, kinds; nSort u8, kinds; nIncl u8, kinds
//	hashBits u8
//	offset array (absent if hashBits == 0): the non-empty buckets only,
//	    count × { gap to the previous non-empty bucket, entries in bucket }
//	synopsis: nKeyCols × { has u8, minLen + bytes, maxLen + bytes }
//	block index: count × { len, entries, firstHash u64, keyLen + bytes }
//	    (offsets and start ordinals are the running sums)
//	ancestors: count × { len + name }

const headerMagic = "UMZIHDR2"

// appendHeader appends the encoded header block to out.
func appendHeader(out []byte, h *Header) []byte {
	out = append(out, headerMagic...)
	out = append(out, byte(h.Meta.Zone))
	for _, v := range []uint64{
		uint64(h.Meta.Level), h.Meta.Blocks.Min, h.Meta.Blocks.Max, uint64(h.Meta.PSN),
		h.Entries, uint64(h.BlockSize), h.DataEnd,
	} {
		out = binary.AppendUvarint(out, v)
	}

	for _, kinds := range [][]keyenc.Kind{h.Def.EqualityKinds, h.Def.SortKinds, h.Def.IncludedKinds} {
		out = append(out, byte(len(kinds)))
		for _, k := range kinds {
			out = append(out, byte(k))
		}
	}

	out = append(out, h.Def.HashBits)
	if h.Def.HashBits > 0 {
		nonEmpty := 0
		for b := 0; b+1 < len(h.OffsetArray); b++ {
			if h.OffsetArray[b+1] > h.OffsetArray[b] {
				nonEmpty++
			}
		}
		out = binary.AppendUvarint(out, uint64(nonEmpty))
		next := 0 // first bucket not yet accounted for
		for b := 0; b+1 < len(h.OffsetArray); b++ {
			if n := h.OffsetArray[b+1] - h.OffsetArray[b]; n > 0 {
				out = binary.AppendUvarint(out, uint64(b-next))
				out = binary.AppendUvarint(out, n)
				next = b + 1
			}
		}
	}

	appendBytes := func(b []byte) {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	for i := range h.SynMin {
		if h.SynMin[i] == nil {
			out = append(out, 0)
			continue
		}
		out = append(out, 1)
		appendBytes(h.SynMin[i])
		appendBytes(h.SynMax[i])
	}

	out = binary.AppendUvarint(out, uint64(len(h.BlockIndex)))
	for i, bi := range h.BlockIndex {
		end := h.Entries
		if i+1 < len(h.BlockIndex) {
			end = h.BlockIndex[i+1].StartOrd
		}
		out = binary.AppendUvarint(out, uint64(bi.Len))
		out = binary.AppendUvarint(out, end-bi.StartOrd)
		out = binary.BigEndian.AppendUint64(out, bi.FirstHash)
		appendBytes(bi.FirstKey)
	}

	out = binary.AppendUvarint(out, uint64(len(h.Meta.Ancestors)))
	for _, a := range h.Meta.Ancestors {
		appendBytes([]byte(a))
	}
	return out
}

// ParseHeader decodes a header block produced by appendHeader. Declared
// counts are checked against the bytes present before anything is
// allocated for them, and the block index must tile [0, DataEnd) and
// [0, Entries) exactly.
func ParseHeader(b []byte) (*Header, error) {
	r := &cursor{b: b}
	if magic, err := r.take(8); err != nil || string(magic) != headerMagic {
		return nil, fmt.Errorf("run: bad header magic")
	}
	h := &Header{}
	h.Meta.Zone = types.ZoneID(r.u8())
	level := r.uvarint()
	h.Meta.Blocks.Min = r.uvarint()
	h.Meta.Blocks.Max = r.uvarint()
	h.Meta.PSN = types.PSN(r.uvarint())
	h.Entries = r.uvarint()
	blockSize := r.uvarint()
	h.DataEnd = r.uvarint()
	if r.err == nil && (level > math.MaxUint16 || blockSize > math.MaxUint32) {
		r.err = fmt.Errorf("run: header level %d or block size %d out of range", level, blockSize)
	}
	h.Meta.Level, h.BlockSize = uint16(level), uint32(blockSize)

	for _, kinds := range []*[]keyenc.Kind{&h.Def.EqualityKinds, &h.Def.SortKinds, &h.Def.IncludedKinds} {
		raw, _ := r.take(int(r.u8()))
		*kinds = make([]keyenc.Kind, len(raw))
		for i, k := range raw {
			(*kinds)[i] = keyenc.Kind(k)
		}
	}
	h.Def.HashBits = r.u8()
	if r.err != nil {
		return nil, r.err
	}
	if err := h.Def.Validate(); err != nil {
		return nil, err
	}

	if h.Def.HashBits > 0 {
		buckets := uint64(1) << h.Def.HashBits
		nonEmpty := r.count(2)
		if r.err != nil {
			return nil, r.err
		}
		h.OffsetArray = make([]uint64, buckets+1)
		next, total := uint64(0), uint64(0)
		for i := 0; i < nonEmpty; i++ {
			gap, n := r.uvarint(), r.uvarint()
			if r.err != nil {
				return nil, r.err
			}
			if gap >= buckets-next || n > h.Entries-total {
				return nil, fmt.Errorf("run: offset array bucket or count out of range")
			}
			for b := next; b <= next+gap; b++ {
				h.OffsetArray[b] = total
			}
			next, total = next+gap+1, total+n
		}
		if total != h.Entries {
			return nil, fmt.Errorf("run: offset array counts %d entries, header %d", total, h.Entries)
		}
		for b := next; b <= buckets; b++ {
			h.OffsetArray[b] = total
		}
	}

	nKeys := h.Def.NumKeyCols()
	h.SynMin = make([][]byte, nKeys)
	h.SynMax = make([][]byte, nKeys)
	for i := 0; i < nKeys; i++ {
		if r.u8() == 0 {
			continue
		}
		h.SynMin[i] = r.bytes()
		h.SynMax[i] = r.bytes()
	}

	// A block's index record is at least 11 bytes.
	nBlocks := r.count(11)
	if r.err != nil {
		return nil, r.err
	}
	h.BlockIndex = make([]BlockInfo, nBlocks)
	off, ord := uint64(0), uint64(0)
	for i := range h.BlockIndex {
		bi := &h.BlockIndex[i]
		l, n := r.uvarint(), r.uvarint()
		hash, _ := r.take(8)
		bi.FirstKey = r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		if n == 0 || n > h.Entries-ord || l > h.DataEnd-off || l > math.MaxUint32 {
			return nil, fmt.Errorf("run: block %d extent out of range", i)
		}
		bi.Off, bi.Len, bi.StartOrd, bi.FirstHash = off, uint32(l), ord, binary.BigEndian.Uint64(hash)
		off, ord = off+l, ord+n
	}
	if off != h.DataEnd || ord != h.Entries {
		return nil, fmt.Errorf("run: block index covers %d bytes and %d entries, header says %d and %d", off, ord, h.DataEnd, h.Entries)
	}

	nAnc := r.count(1)
	for i := 0; i < nAnc && r.err == nil; i++ {
		h.Meta.Ancestors = append(h.Meta.Ancestors, string(r.bytes()))
	}
	if r.err != nil {
		return nil, r.err
	}
	return h, nil
}

// ParseFooter extracts the header location from the final FooterSize bytes
// of a run object.
func ParseFooter(tail []byte) (headerOff uint64, headerLen uint32, err error) {
	if len(tail) < FooterSize {
		return 0, 0, fmt.Errorf("run: short footer: %d bytes", len(tail))
	}
	f := tail[len(tail)-FooterSize:]
	if string(f[12:20]) != runMagic {
		return 0, 0, fmt.Errorf("run: bad footer magic %q", f[12:20])
	}
	return binary.BigEndian.Uint64(f[0:8]), binary.BigEndian.Uint32(f[8:12]), nil
}

// ParseObject parses a complete in-memory run object into its header.
func ParseObject(data []byte) (*Header, error) {
	off, l, err := ParseFooter(data)
	if err != nil {
		return nil, err
	}
	if body := uint64(len(data) - FooterSize); off > body || uint64(l) > body-off {
		return nil, fmt.Errorf("run: footer points outside object")
	}
	h, err := ParseHeader(data[off : off+uint64(l)])
	if err != nil {
		return nil, err
	}
	if h.DataEnd != off {
		return nil, fmt.Errorf("run: header says data ends at %d, footer at %d", h.DataEnd, off)
	}
	return h, nil
}

// cursor is a bounds-checked byte reader with a sticky error: after the
// first failure every read returns zero values, so callers check err once
// per group of fields.
type cursor struct {
	b   []byte
	off int
	err error
}

func (r *cursor) take(n int) ([]byte, error) {
	if r.err == nil && (n < 0 || n > len(r.b)-r.off) {
		r.err = fmt.Errorf("run: truncated header (%d at %d of %d)", n, r.off, len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *cursor) u8() byte {
	b, err := r.take(1)
	if err != nil {
		return 0
	}
	return b[0]
}

func (r *cursor) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("run: truncated header (varint at %d of %d)", r.off, len(r.b))
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and rejects it unless that many elements
// of at least minSize bytes each can still follow.
func (r *cursor) count(minSize int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off)/uint64(minSize) {
		r.err = fmt.Errorf("run: header declares %d elements with %d bytes left", n, len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string into its own allocation.
func (r *cursor) bytes() []byte {
	b, err := r.take(int(min(r.uvarint(), math.MaxInt32)))
	if err != nil {
		return nil
	}
	return append([]byte{}, b...)
}
