package columnar

import (
	"encoding/binary"
	"fmt"

	"umzi/internal/keyenc"
)

// Wire format of a Block (all integers big-endian):
//
//	magic   [8]byte  "UMZICOL3"
//	rows    u32
//	ncols   u16
//	per column:
//	    kind     u8
//	    nameLen  u16, name
//	    has      u8 (1 if min/max present, i.e. rows > 0)
//	    minLen   u32, min encoding (keyenc ascending)
//	    maxLen   u32, max encoding
//	    enc      u8 (Encoding)
//	    column body, by enc:
//	        plain, fixed kind:  nums  rows × u64
//	        plain, var kind:    offsets (rows+1) × u32, payload
//	        bitpack:            base u64, width u8, nwords u32, words × u64
//	        dict:               ndict u32, dictOffsets (ndict+1) × u32,
//	                            dictPayload, width u8, nwords u32, words × u64
//	        rle:                nruns u32, runEnds nruns × u32, then
//	                            fixed: nruns × u64
//	                            var:   runOffsets (nruns+1) × u32, runPayload
//
// The format is self-describing: Unmarshal rebuilds the schema from the
// header, so readers need no side-channel schema registry. It is the
// only format: any other magic — including the pre-encoding "UMZICOL1"
// layout and the "UMZICOL2" layout with per-column filters, which no
// store still holds — is rejected, never decoded.
//
// A Block is these bytes. Unmarshal checks them once and keeps only a
// small per-column directory that points into them, and every read
// afterwards goes to them in place; Build writes them and returns the
// same view.

const blockMagic = "UMZICOL3"

// Marshal returns the block's stored bytes, the one immutable object it
// is stored as. They are the bytes the block holds and reads, not a
// copy: no one may modify them.
func (blk *Block) Marshal() []byte { return blk.data }

// marshal writes the built columns as a block's stored bytes.
func (b *Builder) marshal() []byte {
	out := make([]byte, 0, b.marshalSize())
	out = append(out, blockMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(b.rows))
	out = binary.BigEndian.AppendUint16(out, uint16(b.schema.NumCols()))
	for i := 0; i < b.schema.NumCols(); i++ {
		col := b.schema.Col(i)
		out = append(out, byte(col.Kind))
		out = binary.BigEndian.AppendUint16(out, uint16(len(col.Name)))
		out = append(out, col.Name...)
		if b.rows > 0 {
			out = append(out, 1)
			minEnc := keyenc.Append(nil, b.mins[i])
			maxEnc := keyenc.Append(nil, b.maxs[i])
			out = binary.BigEndian.AppendUint32(out, uint32(len(minEnc)))
			out = append(out, minEnc...)
			out = binary.BigEndian.AppendUint32(out, uint32(len(maxEnc)))
			out = append(out, maxEnc...)
		} else {
			out = append(out, 0)
			out = binary.BigEndian.AppendUint32(out, 0)
			out = binary.BigEndian.AppendUint32(out, 0)
		}
		c := &b.cols[i]
		out = append(out, byte(c.enc))
		switch c.enc {
		case EncPlain:
			if col.Kind.Fixed() {
				out = appendU64s(out, c.nums)
			} else {
				out = appendU32s(out, c.offsets)
				out = append(out, c.payload...)
			}
		case EncBitPack:
			out = binary.BigEndian.AppendUint64(out, c.base)
			out = append(out, c.width)
			out = binary.BigEndian.AppendUint32(out, uint32(len(c.packed)))
			out = appendU64s(out, c.packed)
		case EncDict:
			ndict := len(c.dictOffsets) - 1
			out = binary.BigEndian.AppendUint32(out, uint32(ndict))
			out = appendU32s(out, c.dictOffsets)
			out = append(out, c.dictPayload...)
			out = append(out, c.width)
			out = binary.BigEndian.AppendUint32(out, uint32(len(c.packed)))
			out = appendU64s(out, c.packed)
		case EncRLE:
			out = binary.BigEndian.AppendUint32(out, uint32(len(c.runEnds)))
			out = appendU32s(out, c.runEnds)
			if col.Kind.Fixed() {
				out = appendU64s(out, c.runNums)
			} else {
				out = appendU32s(out, c.runOffsets)
				out = append(out, c.runPayload...)
			}
		}
	}
	return out
}

func appendU32s(out []byte, vals []uint32) []byte {
	for _, v := range vals {
		out = binary.BigEndian.AppendUint32(out, v)
	}
	return out
}

func appendU64s(out []byte, vals []uint64) []byte {
	for _, v := range vals {
		out = binary.BigEndian.AppendUint64(out, v)
	}
	return out
}

// marshalSize computes the exact length marshal will produce.
func (b *Builder) marshalSize() int {
	size := 8 + 4 + 2
	for i := 0; i < b.schema.NumCols(); i++ {
		size += 1 + 2 + len(b.schema.Col(i).Name) + 1 + 4 + 4
		if b.rows > 0 {
			size += keyenc.EncodedLen(b.mins[i]) + keyenc.EncodedLen(b.maxs[i])
		}
		c := &b.cols[i]
		size++ // enc
		switch c.enc {
		case EncPlain:
			size += plainBodySize(c, b.schema.Col(i).Kind.Fixed())
		case EncBitPack:
			size += 8 + 1 + 4 + 8*len(c.packed)
		case EncDict:
			size += 4 + 4*len(c.dictOffsets) + len(c.dictPayload) + 1 + 4 + 8*len(c.packed)
		case EncRLE:
			size += 4 + 4*len(c.runEnds)
			if b.schema.Col(i).Kind.Fixed() {
				size += 8 * len(c.runNums)
			} else {
				size += 4*len(c.runOffsets) + len(c.runPayload)
			}
		}
	}
	return size
}

// PlainSize returns the number of bytes the block would occupy marshaled
// with every column plain. Inspection and
// benchmarks use it as the uncompressed baseline when reporting encoding
// savings.
func (blk *Block) PlainSize() int {
	size := 8 + 4 + 2
	for i := 0; i < blk.schema.NumCols(); i++ {
		col := blk.schema.Col(i)
		size += 1 + 2 + len(col.Name) + 1 + 4 + 4
		if blk.rows > 0 {
			size += keyenc.EncodedLen(blk.mins[i]) + keyenc.EncodedLen(blk.maxs[i])
		}
		if col.Kind.Fixed() {
			size += 8 * blk.rows
		} else {
			size += 4 * (blk.rows + 1)
			for r := 0; r < blk.rows; r++ {
				size += len(blk.varAt(i, r))
			}
		}
	}
	return size
}

// MemSize is the block's resident memory: the stored bytes it holds, by
// capacity since a read buffer may be larger than the object, the key
// fingerprint column once published, and a fixed overhead per block and
// per column for the directory, the schema and the min/max bounds. Block
// caches charge it for byte budgeting.
func (blk *Block) MemSize() int {
	const (
		blockOverhead  = 200 // Block and Schema structs, the schema's map header
		columnOverhead = 240 // directory entry, schema column and map entry, min + max
	)
	return blockOverhead + columnOverhead*len(blk.cols) + cap(blk.data) + blk.fingerprintBytes()
}

// Unmarshal returns the block data holds, data as produced by Marshal.
// It checks every structural invariant once — magic, lengths, encoding
// tags, word counts, monotonic offsets and run ends, dictionary codes in
// range — so that no read of an accepted block can go out of bounds, and
// decodes only the schema, the min/max bounds and a per-column directory
// into data. The block aliases data and reads it in place for as long as
// the block lives: no one may modify data afterwards.
func Unmarshal(data []byte) (*Block, error) {
	r := reader{b: data}
	magic, err := r.take(8)
	if err != nil || string(magic) != blockMagic {
		return nil, fmt.Errorf("columnar: bad magic")
	}
	rows64, err := r.u32()
	if err != nil {
		return nil, err
	}
	rows := int(rows64)
	ncols64, err := r.u16()
	if err != nil {
		return nil, err
	}
	ncols := int(ncols64)
	if ncols == 0 {
		return nil, fmt.Errorf("columnar: zero columns")
	}

	cols := make([]Column, ncols)
	dir := make([]column, ncols)
	mins := make([]keyenc.Value, ncols)
	maxs := make([]keyenc.Value, ncols)
	for i := 0; i < ncols; i++ {
		kindB, err := r.u8()
		if err != nil {
			return nil, err
		}
		kind := keyenc.Kind(kindB)
		nameLen, err := r.u16()
		if err != nil {
			return nil, err
		}
		name, err := r.take(int(nameLen))
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: string(name), Kind: kind}

		has, err := r.u8()
		if err != nil {
			return nil, err
		}
		minLen, err := r.u32()
		if err != nil {
			return nil, err
		}
		minEnc, err := r.take(int(minLen))
		if err != nil {
			return nil, err
		}
		maxLen, err := r.u32()
		if err != nil {
			return nil, err
		}
		maxEnc, err := r.take(int(maxLen))
		if err != nil {
			return nil, err
		}
		// Marshal writes min/max exactly when the block has rows, each
		// bound as one whole encoding; anything else is corrupt.
		if rows == 0 {
			if has != 0 || minLen != 0 || maxLen != 0 {
				return nil, fmt.Errorf("columnar: column %d has min/max but no rows", i)
			}
		} else {
			if has != 1 {
				return nil, fmt.Errorf("columnar: column %d of %d rows lacks min/max", i, rows)
			}
			if mins[i], err = decodeBound(minEnc, kind); err != nil {
				return nil, fmt.Errorf("columnar: column %d min: %w", i, err)
			}
			if maxs[i], err = decodeBound(maxEnc, kind); err != nil {
				return nil, fmt.Errorf("columnar: column %d max: %w", i, err)
			}
		}

		if err := readColumn(&r, &dir[i], kind, rows, i); err != nil {
			return nil, err
		}
	}
	if n := len(data) - r.off; n != 0 {
		return nil, fmt.Errorf("columnar: %d trailing bytes", n)
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &Block{schema: schema, rows: rows, data: data, cols: dir, mins: mins, maxs: maxs}, nil
}

// decodeBound decodes one min/max bound, which must fill enc exactly.
func decodeBound(enc []byte, kind keyenc.Kind) (keyenc.Value, error) {
	v, n, err := keyenc.Decode(enc, kind)
	if err == nil && n != len(enc) {
		err = fmt.Errorf("%d trailing bytes", len(enc)-n)
	}
	return v, err
}

// readColumn reads one column's encoding tag and points c at the
// encoding-specific body, checking every structural invariant so that
// a corrupted block fails Unmarshal instead of panicking in a read.
func readColumn(r *reader, c *column, kind keyenc.Kind, rows, col int) error {
	encB, err := r.u8()
	if err != nil {
		return err
	}
	c.enc = Encoding(encB)
	switch c.enc {
	case EncPlain:
		if kind.Fixed() {
			c.words, err = r.take(8 * rows)
			return err
		}
		return r.entries(c, rows, col, "offsets")
	case EncBitPack:
		if !kind.Fixed() {
			return fmt.Errorf("columnar: column %d: bitpack on %v", col, kind)
		}
		if c.base, err = r.u64(); err != nil {
			return err
		}
		if c.width, err = r.width(col); err != nil {
			return err
		}
		c.words, err = r.packedBody(rows, c.width, col)
		return err
	case EncDict:
		if kind.Fixed() {
			return fmt.Errorf("columnar: column %d: dict on %v", col, kind)
		}
		ndict, err := r.u32()
		if err != nil {
			return err
		}
		if rows > 0 && ndict == 0 {
			return fmt.Errorf("columnar: column %d: empty dictionary", col)
		}
		if err := r.entries(c, int(ndict), col, "dict offsets"); err != nil {
			return err
		}
		if c.width, err = r.width(col); err != nil {
			return err
		}
		if c.words, err = r.packedBody(rows, c.width, col); err != nil {
			return err
		}
		if row := codeOutOfRange(c.words, c.width, rows, uint64(ndict)); row >= 0 {
			return fmt.Errorf("columnar: column %d: dict code out of range at row %d", col, row)
		}
		return nil
	case EncRLE:
		nruns64, err := r.u32()
		if err != nil {
			return err
		}
		nruns := int(nruns64)
		if (nruns == 0) != (rows == 0) {
			return fmt.Errorf("columnar: column %d: %d runs for %d rows", col, nruns, rows)
		}
		if c.ends, err = r.take(4 * nruns); err != nil {
			return err
		}
		prev := uint32(0)
		for e := c.ends; len(e) >= 4; e = e[4:] {
			end := binary.BigEndian.Uint32(e)
			if end <= prev {
				return fmt.Errorf("columnar: column %d: run ends not increasing", col)
			}
			prev = end
		}
		if int(prev) != rows {
			return fmt.Errorf("columnar: column %d: runs cover %d of %d rows", col, prev, rows)
		}
		if kind.Fixed() {
			c.words, err = r.take(8 * nruns)
			return err
		}
		return r.entries(c, nruns, col, "run offsets")
	default:
		return fmt.Errorf("columnar: column %d: unknown encoding %d", col, encB)
	}
}

// codeOutOfRange returns the first row whose dictionary code is ndict or
// more, or -1, in one sequential pass over the packed codes. A width-bit
// code is below 2^width, so when ndict reaches that every code is in
// range and the pass is skipped.
func codeOutOfRange(words []byte, width uint8, rows int, ndict uint64) int {
	if width < 64 && ndict >= 1<<width {
		return -1
	}
	var codes [64]uint64
	for base := 0; base < rows; base += 64 {
		n := min(64, rows-base)
		unpack(words, width, base, chunkSel(n), &codes)
		for i, code := range codes[:n] {
			if code >= ndict {
				return base + i
			}
		}
	}
	return -1
}

// entries points c at n+1 u32 offsets and the payload they index,
// checking that the offsets never decrease, so every entry lies inside
// the payload. what names the offsets in the error.
func (r *reader) entries(c *column, n, col int, what string) error {
	offs, err := r.take(4 * (n + 1))
	if err != nil {
		return err
	}
	end := binary.BigEndian.Uint32(offs)
	for o := offs[4:]; len(o) >= 4; o = o[4:] {
		next := binary.BigEndian.Uint32(o)
		if next < end {
			return fmt.Errorf("columnar: column %d: %s not monotonic", col, what)
		}
		end = next
	}
	pay, err := r.take(int(end))
	if err != nil {
		return err
	}
	c.offsets, c.payload = offs, pay
	return nil
}

// width reads a bit-packed body's value width, at most 64.
func (r *reader) width(col int) (uint8, error) {
	w, err := r.u8()
	if err == nil && w > 64 {
		err = fmt.Errorf("columnar: column %d: bit width %d", col, w)
	}
	return w, err
}

// packedBody reads a bit-packed word array, checking the word count
// against the row count and width.
func (r *reader) packedBody(rows int, width uint8, col int) ([]byte, error) {
	nwords, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(nwords) != packedWords(rows, width) {
		return nil, fmt.Errorf("columnar: column %d: %d packed words for %d rows at width %d", col, nwords, rows, width)
	}
	return r.take(8 * int(nwords))
}

// reader is a tiny bounds-checked cursor.
type reader struct {
	b   []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("columnar: truncated block (%d bytes at %d of %d)", n, r.off, len(r.b))
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}
