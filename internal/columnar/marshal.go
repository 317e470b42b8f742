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

const blockMagic = "UMZICOL3"

// Marshal encodes the block for storage as one immutable object.
func (blk *Block) Marshal() []byte {
	out := make([]byte, 0, blk.marshalSize())
	out = append(out, blockMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(blk.rows))
	out = binary.BigEndian.AppendUint16(out, uint16(blk.schema.NumCols()))
	for i := 0; i < blk.schema.NumCols(); i++ {
		col := blk.schema.Col(i)
		out = append(out, byte(col.Kind))
		out = binary.BigEndian.AppendUint16(out, uint16(len(col.Name)))
		out = append(out, col.Name...)
		if blk.rows > 0 {
			out = append(out, 1)
			minEnc := keyenc.Append(nil, blk.mins[i])
			maxEnc := keyenc.Append(nil, blk.maxs[i])
			out = binary.BigEndian.AppendUint32(out, uint32(len(minEnc)))
			out = append(out, minEnc...)
			out = binary.BigEndian.AppendUint32(out, uint32(len(maxEnc)))
			out = append(out, maxEnc...)
		} else {
			out = append(out, 0)
			out = binary.BigEndian.AppendUint32(out, 0)
			out = binary.BigEndian.AppendUint32(out, 0)
		}
		c := &blk.cols[i]
		out = append(out, byte(c.enc))
		switch c.enc {
		case EncPlain:
			if col.Kind.Fixed() {
				for _, n := range c.nums {
					out = binary.BigEndian.AppendUint64(out, n)
				}
			} else {
				out = appendU32s(out, c.offsets)
				out = append(out, c.payload...)
			}
		case EncBitPack:
			out = binary.BigEndian.AppendUint64(out, c.base)
			out = append(out, c.width)
			out = binary.BigEndian.AppendUint32(out, uint32(len(c.packed)))
			for _, w := range c.packed {
				out = binary.BigEndian.AppendUint64(out, w)
			}
		case EncDict:
			ndict := len(c.dictOffsets) - 1
			out = binary.BigEndian.AppendUint32(out, uint32(ndict))
			out = appendU32s(out, c.dictOffsets)
			out = append(out, c.dictPayload...)
			out = append(out, c.width)
			out = binary.BigEndian.AppendUint32(out, uint32(len(c.packed)))
			for _, w := range c.packed {
				out = binary.BigEndian.AppendUint64(out, w)
			}
		case EncRLE:
			out = binary.BigEndian.AppendUint32(out, uint32(len(c.runEnds)))
			out = appendU32s(out, c.runEnds)
			if col.Kind.Fixed() {
				for _, n := range c.runNums {
					out = binary.BigEndian.AppendUint64(out, n)
				}
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

// marshalSize computes the exact length Marshal will produce.
func (blk *Block) marshalSize() int {
	size := 8 + 4 + 2
	for i := 0; i < blk.schema.NumCols(); i++ {
		size += 1 + 2 + len(blk.schema.Col(i).Name) + 1 + 4 + 4
		if blk.rows > 0 {
			size += keyenc.EncodedLen(blk.mins[i]) + keyenc.EncodedLen(blk.maxs[i])
		}
		c := &blk.cols[i]
		size++ // enc
		switch c.enc {
		case EncPlain:
			size += plainBodySize(c, blk.schema.Col(i).Kind.Fixed())
		case EncBitPack:
			size += 8 + 1 + 4 + 8*len(c.packed)
		case EncDict:
			size += 4 + 4*len(c.dictOffsets) + len(c.dictPayload) + 1 + 4 + 8*len(c.packed)
		case EncRLE:
			size += 4 + 4*len(c.runEnds)
			if blk.schema.Col(i).Kind.Fixed() {
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

// MemSize estimates the decoded block's resident memory: every encoded
// column body, the key fingerprint column once published, plus fixed
// per-column and per-block struct overhead. Block
// caches use it as the charge unit for byte budgeting, so it only needs
// to track the real footprint closely enough that a budget of N bytes
// holds roughly N bytes of blocks.
func (blk *Block) MemSize() int {
	const (
		blockOverhead  = 96  // Block struct + schema pointer + slice headers
		columnOverhead = 160 // column struct: encoding tag + 8 slice headers
		valueOverhead  = 48  // keyenc.Value tagged union (min + max entries)
	)
	size := blockOverhead + blk.fingerprintBytes()
	for i := range blk.cols {
		c := &blk.cols[i]
		size += columnOverhead + valueOverhead
		size += 8*len(c.nums) + 4*len(c.offsets) + len(c.payload)
		size += 8 * len(c.packed)
		size += 4*len(c.dictOffsets) + len(c.dictPayload)
		size += 4*len(c.runEnds) + 8*len(c.runNums) + 4*len(c.runOffsets) + len(c.runPayload)
	}
	return size
}

// Unmarshal decodes a block previously produced by Marshal.
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
	data2 := make([]column, ncols)
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

		if err := readColumn(&r, &data2[i], kind, rows, i); err != nil {
			return nil, err
		}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &Block{schema: schema, rows: rows, cols: data2, mins: mins, maxs: maxs}, nil
}

// decodeBound decodes one min/max bound, which must fill enc exactly.
func decodeBound(enc []byte, kind keyenc.Kind) (keyenc.Value, error) {
	v, n, err := keyenc.Decode(enc, kind)
	if err == nil && n != len(enc) {
		err = fmt.Errorf("%d trailing bytes", len(enc)-n)
	}
	return v, err
}

// readPlainColumn reads a plain-encoded column body.
func readPlainColumn(r *reader, c *column, kind keyenc.Kind, rows int) error {
	c.enc = EncPlain
	if kind.Fixed() {
		nums, err := r.u64s(rows)
		if err != nil {
			return err
		}
		c.nums = nums
		return nil
	}
	offsets, err := r.u32s(rows + 1)
	if err != nil {
		return err
	}
	payload, err := r.take(int(offsets[rows]))
	if err != nil {
		return err
	}
	// Validate monotonic offsets so Value never panics on corrupted
	// input.
	for j := 0; j < rows; j++ {
		if offsets[j] > offsets[j+1] {
			return fmt.Errorf("columnar: offsets not monotonic")
		}
	}
	c.offsets = offsets
	c.payload = append([]byte(nil), payload...)
	return nil
}

// readColumn reads one column: encoding tag and the encoding-specific
// body, validating every structural
// invariant so a corrupted block fails Unmarshal instead of panicking in
// Value.
func readColumn(r *reader, c *column, kind keyenc.Kind, rows, col int) error {
	encB, err := r.u8()
	if err != nil {
		return err
	}
	c.enc = Encoding(encB)
	switch c.enc {
	case EncPlain:
		return readPlainColumn(r, c, kind, rows)
	case EncBitPack:
		if !kind.Fixed() {
			return fmt.Errorf("columnar: column %d: bitpack on %v", col, kind)
		}
		base, err := r.u64s(1)
		if err != nil {
			return err
		}
		c.base = base[0]
		width, err := r.u8()
		if err != nil {
			return err
		}
		if width > 64 {
			return fmt.Errorf("columnar: column %d: bit width %d", col, width)
		}
		c.width = width
		c.packed, err = r.packedBody(rows, width, col)
		return err
	case EncDict:
		if kind.Fixed() {
			return fmt.Errorf("columnar: column %d: dict on %v", col, kind)
		}
		ndict64, err := r.u32()
		if err != nil {
			return err
		}
		ndict := int(ndict64)
		if rows > 0 && ndict == 0 {
			return fmt.Errorf("columnar: column %d: empty dictionary", col)
		}
		offs, err := r.u32s(ndict + 1)
		if err != nil {
			return err
		}
		for j := 0; j < ndict; j++ {
			if offs[j] > offs[j+1] {
				return fmt.Errorf("columnar: column %d: dict offsets not monotonic", col)
			}
		}
		pay, err := r.take(int(offs[ndict]))
		if err != nil {
			return err
		}
		c.dictOffsets = offs
		c.dictPayload = append([]byte(nil), pay...)
		width, err := r.u8()
		if err != nil {
			return err
		}
		if width > 64 {
			return fmt.Errorf("columnar: column %d: code width %d", col, width)
		}
		c.width = width
		if c.packed, err = r.packedBody(rows, width, col); err != nil {
			return err
		}
		for j := 0; j < rows; j++ {
			if packGet(c.packed, width, j) >= uint64(ndict) {
				return fmt.Errorf("columnar: column %d: dict code out of range at row %d", col, j)
			}
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
		ends, err := r.u32s(nruns)
		if err != nil {
			return err
		}
		for j, e := range ends {
			if (j > 0 && e <= ends[j-1]) || (j == 0 && e == 0) {
				return fmt.Errorf("columnar: column %d: run ends not increasing", col)
			}
		}
		if nruns > 0 && int(ends[nruns-1]) != rows {
			return fmt.Errorf("columnar: column %d: runs cover %d of %d rows", col, ends[nruns-1], rows)
		}
		c.runEnds = ends
		if kind.Fixed() {
			c.runNums, err = r.u64s(nruns)
			return err
		}
		roffs, err := r.u32s(nruns + 1)
		if err != nil {
			return err
		}
		for j := 0; j < nruns; j++ {
			if roffs[j] > roffs[j+1] {
				return fmt.Errorf("columnar: column %d: run offsets not monotonic", col)
			}
		}
		pay, err := r.take(int(roffs[nruns]))
		if err != nil {
			return err
		}
		c.runOffsets = roffs
		c.runPayload = append([]byte(nil), pay...)
		return nil
	default:
		return fmt.Errorf("columnar: column %d: unknown encoding %d", col, encB)
	}
}

// packedBody reads a bit-packed word array, validating the word count
// against the row count and width.
func (r *reader) packedBody(rows int, width uint8, col int) ([]uint64, error) {
	nwords, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(nwords) != packedWords(rows, width) {
		return nil, fmt.Errorf("columnar: column %d: %d packed words for %d rows at width %d", col, nwords, rows, width)
	}
	return r.u64s(int(nwords))
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
	out := r.b[r.off : r.off+n]
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

func (r *reader) u32s(n int) ([]uint32, error) {
	raw, err := r.take(4 * n)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(raw[4*i:])
	}
	return out, nil
}

func (r *reader) u64s(n int) ([]uint64, error) {
	raw, err := r.take(8 * n)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	return out, nil
}
