package columnar

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"

	"umzi/internal/keyenc"
)

// Per-column encodings. A freshly built block picks, per column, the
// encoding with the smallest estimated wire size (plain wins ties), so
// blocks shrink automatically where the data allows it without any
// schema-level configuration:
//
//   - EncPlain: raw 64-bit words for fixed kinds,
//     offsets+payload for variable kinds. Always applicable.
//   - EncDict: variable kinds only. The sorted distinct values are stored
//     once; rows store bit-packed indexes ("codes") into that dictionary.
//     Because the dictionary is sorted, code order equals value order, so
//     comparisons — not just equality — run directly on codes.
//   - EncBitPack: fixed kinds only. Frame-of-reference: each row stores
//     (sortKey - base) bit-packed at the minimal width, where sortKey is
//     the order-preserving uint64 image of the value (keyenc.SortKeyBits)
//     and base is the column minimum. Deltas are computed in sort-key
//     space, where subtraction cannot overflow for ordered keys.
//   - EncRLE: any kind. Runs of consecutive equal values collapse to
//     (cumulative end row, value) pairs; ideal for sorted or
//     near-constant columns such as beginTS and endTS.

// Encoding identifies the physical layout of one column within a block.
type Encoding uint8

// Supported column encodings.
const (
	EncPlain Encoding = iota
	EncDict
	EncBitPack
	EncRLE
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncDict:
		return "dict"
	case EncBitPack:
		return "bitpack"
	case EncRLE:
		return "rle"
	default:
		return "enc(?)"
	}
}

// --- bit packing -----------------------------------------------------------

// packedWords returns the number of uint64 words needed to hold n values
// of the given bit width.
func packedWords(n int, width uint8) int {
	return (n*int(width) + 63) / 64
}

// packPut stores v (which must fit in width bits) as the i-th value of a
// zero-initialized packed word array.
func packPut(words []uint64, width uint8, i int, v uint64) {
	if width == 0 {
		return
	}
	bit := i * int(width)
	w, off := bit>>6, uint(bit&63)
	words[w] |= v << off
	if off+uint(width) > 64 {
		words[w+1] |= v >> (64 - off)
	}
}

// packGet loads the i-th width-bit value from words, stored as
// big-endian u64s.
func packGet(words []byte, width uint8, i int) uint64 {
	if width == 0 {
		return 0
	}
	bit := i * int(width)
	b, off := bit>>6<<3, uint(bit&63)
	v := binary.BigEndian.Uint64(words[b:]) >> off
	if off+uint(width) > 64 {
		v |= binary.BigEndian.Uint64(words[b+8:]) << (64 - off)
	}
	return v & (1<<width - 1)
}

// unpack decodes the packed values of the rows a selection word picks
// from the 64-row chunk at base, a multiple of 64: bit i of sel picks
// row base+i, and the k-th picked row's value lands in out[k]. The
// chunk's words, up to the last picked row, are byte-swapped once into
// a buffer, and each value is read from its word and the next without
// a branch: when the value does not straddle the two, the next word's
// bits land above width and the mask drops them. The buffer's spare
// last word is zero.
func unpack(words []byte, width uint8, base int, sel uint64, out *[64]uint64) {
	if width == 0 {
		clear(out[:bits.OnesCount64(sel)])
		return
	}
	var buf [65]uint64
	n := 64 - bits.LeadingZeros64(sel) // rows up to the last picked one
	decodeWords(buf[:(n*int(width)+63)/64], words[base*int(width)/8:])
	mask := uint64(1)<<width - 1
	if sel&(sel+1) == 0 { // every row of the chunk up to n
		for i := range out[:n] {
			bit := i * int(width)
			j, off := bit>>6&63, uint(bit&63)
			out[i] = (buf[j]>>off | buf[j+1]<<1<<(63-off)) & mask
		}
		return
	}
	for k := 0; sel != 0; sel &= sel - 1 {
		bit := bits.TrailingZeros64(sel) * int(width)
		j, off := bit>>6&63, uint(bit&63)
		out[k] = (buf[j]>>off | buf[j+1]<<1<<(63-off)) & mask
		k++
	}
}

// chunkSel is the selection word of the first n rows of a chunk.
func chunkSel(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// --- encoders --------------------------------------------------------------

// buildCol is a column under construction: the builder appends rows to
// it plain, chooseEncoding rewrites it to its encoding, and Build writes
// it into the block's stored bytes. Which field group is populated
// depends on enc:
//
//	EncPlain   fixed: nums; variable: offsets+payload
//	EncBitPack base+width+packed (fixed kinds only)
//	EncDict    dictOffsets+dictPayload (sorted distinct values) and
//	           width+packed (codes; variable kinds only)
//	EncRLE     runEnds plus runNums (fixed) or runOffsets+runPayload
type buildCol struct {
	enc Encoding

	nums    []uint64 // int64 bits / uint64 / float64 bits / bool 0|1
	offsets []uint32 // len rows+1, for bytes/string
	payload []byte

	base   uint64 // bitpack: minimum sort key
	width  uint8  // bitpack: delta width; dict: code width
	packed []uint64

	dictOffsets []uint32 // len ndict+1
	dictPayload []byte

	runEnds    []uint32 // cumulative end row of each run; last == rows
	runNums    []uint64
	runOffsets []uint32 // len runs+1
	runPayload []byte
}

// encodeBitPack rewrites a plain fixed column as frame-of-reference
// bit-packed deltas in sort-key space.
func encodeBitPack(c *buildCol, kind keyenc.Kind) {
	base, width := bitPackDims(c.nums, kind)
	packed := make([]uint64, packedWords(len(c.nums), width))
	for i, raw := range c.nums {
		packPut(packed, width, i, keyenc.SortKeyBits(kind, raw)-base)
	}
	c.enc = EncBitPack
	c.base = base
	c.width = width
	c.packed = packed
	c.nums = nil
}

// bitPackDims returns the frame-of-reference base (minimum sort key) and
// bit width for a plain fixed column's raw words.
func bitPackDims(nums []uint64, kind keyenc.Kind) (base uint64, width uint8) {
	if len(nums) == 0 {
		return 0, 0
	}
	min, max := keyenc.SortKeyBits(kind, nums[0]), keyenc.SortKeyBits(kind, nums[0])
	for _, raw := range nums[1:] {
		k := keyenc.SortKeyBits(kind, raw)
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	return min, uint8(bits.Len64(max - min))
}

// encodeDict rewrites a plain variable column as a sorted dictionary plus
// bit-packed codes; dict is the column's dictValues.
func encodeDict(c *buildCol, dict [][]byte) {
	rows := len(c.offsets) - 1
	var width uint8
	if len(dict) > 1 {
		width = uint8(bits.Len64(uint64(len(dict) - 1)))
	}
	codes := make([]uint64, packedWords(rows, width))
	for r := 0; r < rows; r++ {
		v := c.payload[c.offsets[r]:c.offsets[r+1]]
		ci := sort.Search(len(dict), func(i int) bool { return bytes.Compare(dict[i], v) >= 0 })
		packPut(codes, width, r, uint64(ci))
	}
	dictOffsets := make([]uint32, 1, len(dict)+1)
	var dictPayload []byte
	for _, d := range dict {
		dictPayload = append(dictPayload, d...)
		dictOffsets = append(dictOffsets, uint32(len(dictPayload)))
	}
	c.enc = EncDict
	c.width = width
	c.packed = codes
	c.dictOffsets = dictOffsets
	c.dictPayload = dictPayload
	c.offsets = nil
	c.payload = nil
}

// dictValues returns the sorted distinct values of a plain variable
// column.
func dictValues(c *buildCol) [][]byte {
	rows := len(c.offsets) - 1
	vals := make([][]byte, rows)
	for r := 0; r < rows; r++ {
		vals[r] = c.payload[c.offsets[r]:c.offsets[r+1]]
	}
	slices.SortFunc(vals, bytes.Compare)
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || !bytes.Equal(out[len(out)-1], v) {
			out = append(out, v)
		}
	}
	return out
}

// dictSize estimates the wire size of a dict encoding for a column of
// rows values whose dictValues are dict.
func dictSize(dict [][]byte, rows int) int {
	ndict := len(dict)
	var payload int
	for _, d := range dict {
		payload += len(d)
	}
	width := 0
	if ndict > 1 {
		width = bits.Len64(uint64(ndict - 1))
	}
	// ndict u32 + (ndict+1) offsets + payload + width u8 + nwords u32 + words
	return 4 + 4*(ndict+1) + payload + 1 + 4 + 8*packedWords(rows, uint8(width))
}

// encodeRLE rewrites a plain column (fixed or variable) as runs of equal
// values: cumulative run-end rows plus one stored value per run.
func encodeRLE(c *buildCol, fixed bool) {
	var runEnds []uint32
	if fixed {
		var runNums []uint64
		for i, v := range c.nums {
			if i == 0 || v != c.nums[i-1] {
				runNums = append(runNums, v)
				runEnds = append(runEnds, uint32(i+1))
			} else {
				runEnds[len(runEnds)-1] = uint32(i + 1)
			}
		}
		c.runNums = runNums
		c.nums = nil
	} else {
		rows := len(c.offsets) - 1
		runOffsets := []uint32{0}
		var runPayload []byte
		for r := 0; r < rows; r++ {
			v := c.payload[c.offsets[r]:c.offsets[r+1]]
			if r > 0 && bytes.Equal(v, c.payload[c.offsets[r-1]:c.offsets[r]]) {
				runEnds[len(runEnds)-1] = uint32(r + 1)
				continue
			}
			runPayload = append(runPayload, v...)
			runOffsets = append(runOffsets, uint32(len(runPayload)))
			runEnds = append(runEnds, uint32(r+1))
		}
		c.runOffsets = runOffsets
		c.runPayload = runPayload
		c.offsets = nil
		c.payload = nil
	}
	c.enc = EncRLE
	c.runEnds = runEnds
}

// rleRuns counts the runs of consecutive equal values and, for variable
// kinds, the total payload bytes of one stored value per run.
func rleRuns(c *buildCol, fixed bool) (runs, varPayload int) {
	if fixed {
		for i, v := range c.nums {
			if i == 0 || v != c.nums[i-1] {
				runs++
			}
		}
		return runs, 0
	}
	rows := len(c.offsets) - 1
	for r := 0; r < rows; r++ {
		if r == 0 || !bytes.Equal(c.payload[c.offsets[r]:c.offsets[r+1]], c.payload[c.offsets[r-1]:c.offsets[r]]) {
			runs++
			varPayload += int(c.offsets[r+1] - c.offsets[r])
		}
	}
	return runs, varPayload
}

// runIndex returns the run containing row: the smallest i whose run
// end is greater than row.
func (c *column) runIndex(row int) int {
	lo, hi := 0, len(c.ends)/4
	for lo < hi {
		mid := (lo + hi) / 2
		if c.runEnd(mid) > row {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// chooseEncoding picks the smallest-wire-size encoding for a freshly
// built plain column and rewrites it in place. forced, when non-nil,
// overrides the choice where the encoding applies to the kind (with a
// plain fallback otherwise).
func chooseEncoding(c *buildCol, kind keyenc.Kind, rows int, forced *Encoding) {
	fixed := kind.Fixed()
	if forced != nil {
		switch *forced {
		case EncBitPack:
			if fixed {
				encodeBitPack(c, kind)
			}
		case EncDict:
			if !fixed {
				encodeDict(c, dictValues(c))
			}
		case EncRLE:
			if rows > 0 {
				encodeRLE(c, fixed)
			}
		}
		return
	}
	if rows == 0 {
		return
	}
	// Estimated wire sizes of each candidate's column body (the shared
	// kind/name/min/max header is identical across encodings).
	best, bestEnc := plainBodySize(c, fixed), EncPlain
	var dict [][]byte // the variable column's dictValues
	runs, runPayload := rleRuns(c, fixed)
	var rleSize int
	if fixed {
		rleSize = 4 + 4*runs + 8*runs // nruns + ends + values
	} else {
		rleSize = 4 + 4*runs + 4*(runs+1) + runPayload
	}
	if rleSize < best {
		best, bestEnc = rleSize, EncRLE
	}
	if fixed {
		_, width := bitPackDims(c.nums, kind)
		// base u64 + width u8 + nwords u32 + words
		if s := 8 + 1 + 4 + 8*packedWords(rows, width); s < best {
			best, bestEnc = s, EncBitPack
		}
	} else {
		dict = dictValues(c)
		if s := dictSize(dict, rows); s < best {
			best, bestEnc = s, EncDict
		}
	}
	switch bestEnc {
	case EncRLE:
		encodeRLE(c, fixed)
	case EncBitPack:
		encodeBitPack(c, kind)
	case EncDict:
		encodeDict(c, dict)
	}
}

// plainBodySize is the wire size of a plain column body.
func plainBodySize(c *buildCol, fixed bool) int {
	if fixed {
		return 8 * len(c.nums)
	}
	return 4*len(c.offsets) + len(c.payload)
}
