// Package columnar implements the column-major data block format that
// stands in for Parquet in this reproduction.
//
// Wildfire persists live-zone segments, groomed blocks and post-groomed
// blocks in a columnar open format (§2.1). Umzi itself never interprets
// record payloads through the format's API — it only needs (a) columnar
// blocks addressable by (block ID, record offset) so RIDs resolve to
// records, (b) per-column min/max statistics, and (c) immutable whole-block
// writes compatible with append-only shared storage. This package provides
// exactly those properties with a compact self-describing encoding.
//
// Columns are stored under per-column encodings (see encoding.go) chosen
// automatically at Build() time and support vectorized predicate
// evaluation through CmpSelect, which compares an entire column against a
// constant directly over the encoded representation and emits a selection
// bitmap.
package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"umzi/internal/keyenc"
)

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind keyenc.Kind
}

// Schema is an ordered set of uniquely named columns.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema, rejecting duplicate or empty names and
// invalid kinds.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("columnar: empty schema")
	}
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("columnar: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("columnar: duplicate column %q", c.Name)
		}
		switch c.Kind {
		case keyenc.KindInt64, keyenc.KindUint64, keyenc.KindFloat64,
			keyenc.KindBytes, keyenc.KindString, keyenc.KindBool:
		default:
			return nil, fmt.Errorf("columnar: column %q has invalid kind %v", c.Name, c.Kind)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns the i-th column descriptor.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// ColIndex returns the index of the named column.
func (s *Schema) ColIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Equal reports whether two schemas have identical columns in order.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// column is one column's directory entry: its encoding, the parameters
// the encoding needs, and the regions of the block's stored bytes that
// hold its body. Every region aliases the block's bytes and is read in
// place, u64 words and u32 offsets big-endian, the format's byte order.
// Which regions are set depends on enc:
//
//	EncPlain   fixed: words, one per row; variable: offsets+payload
//	EncBitPack base+width+words (packed deltas; fixed kinds only)
//	EncDict    offsets+payload (the sorted distinct values) and
//	           width+words (packed codes; variable kinds only)
//	EncRLE     ends, plus words (one value per run, fixed) or
//	           offsets+payload (one value per run, variable)
type column struct {
	enc     Encoding
	width   uint8  // bitpack: delta width; dict: code width
	base    uint64 // bitpack: minimum sort key
	words   []byte // u64 words
	offsets []byte // u32 offsets: entry i is payload[offset i : offset i+1]
	payload []byte
	ends    []byte // u32 cumulative end row of each run; the last is rows
}

// u64At reads the i-th big-endian u64 of b.
func u64At(b []byte, i int) uint64 { return binary.BigEndian.Uint64(b[8*i:]) }

// u32At reads the i-th big-endian u32 of b.
func u32At(b []byte, i int) uint32 { return binary.BigEndian.Uint32(b[4*i:]) }

// decodeWords fills dst with the big-endian u64s at the head of src,
// which must hold at least len(dst) of them; eight at a time, so the
// loads and byte swaps of one round overlap.
func decodeWords(dst []uint64, src []byte) {
	src = src[:8*len(dst)]
	for len(dst) >= 8 {
		d, s := dst[:8:8], src[:64:64]
		d[0] = binary.BigEndian.Uint64(s[0:8])
		d[1] = binary.BigEndian.Uint64(s[8:16])
		d[2] = binary.BigEndian.Uint64(s[16:24])
		d[3] = binary.BigEndian.Uint64(s[24:32])
		d[4] = binary.BigEndian.Uint64(s[32:40])
		d[5] = binary.BigEndian.Uint64(s[40:48])
		d[6] = binary.BigEndian.Uint64(s[48:56])
		d[7] = binary.BigEndian.Uint64(s[56:64])
		dst, src = dst[8:], src[64:]
	}
	for i := range dst {
		dst[i] = u64At(src, i)
	}
}

// entry returns the i-th value of the column's offsets+payload pair.
func (c *column) entry(i int) []byte {
	return c.payload[u32At(c.offsets, i):u32At(c.offsets, i+1)]
}

// runEnd returns the end row of run i.
func (c *column) runEnd(i int) int { return int(u32At(c.ends, i)) }

// Block is an immutable columnar data block. It is its stored bytes: the
// column directory and the min/max bounds are all it decodes from them,
// and every read goes to the bytes in place.
type Block struct {
	schema *Schema
	rows   int
	data   []byte // the stored bytes, which every column region aliases
	cols   []column
	mins   []keyenc.Value // per column; invalid Value when rows == 0
	maxs   []keyenc.Value
	fps    atomic.Pointer[[]uint32] // published by KeyFingerprints
}

// Builder accumulates rows and produces an immutable Block. Rows are
// buffered plain; Build() rewrites each column to its best encoding.
type Builder struct {
	schema   *Schema
	rows     int
	cols     []buildCol
	mins     []keyenc.Value
	maxs     []keyenc.Value
	arena    arena
	forceEnc *Encoding
}

// NewBuilder returns a builder for the schema.
func NewBuilder(schema *Schema) *Builder {
	b := &Builder{
		schema: schema,
		cols:   make([]buildCol, schema.NumCols()),
		mins:   make([]keyenc.Value, schema.NumCols()),
		maxs:   make([]keyenc.Value, schema.NumCols()),
	}
	for i := range b.cols {
		if !schema.Col(i).Kind.Fixed() {
			b.cols[i].offsets = []uint32{0}
		}
	}
	return b
}

// ForceEncoding overrides automatic encoding selection: every column the
// encoding applies to uses it, the rest stay plain. For tests and
// benchmarks.
func (b *Builder) ForceEncoding(enc Encoding) {
	b.forceEnc = &enc
}

// arena batches the small copies the builder makes of string/bytes
// min/max candidates. Chunks are allocated with spare capacity and
// appended to in place — a chunk is never reallocated, so slices handed
// out earlier stay valid.
type arena struct {
	cur []byte
}

const arenaChunk = 4096

func (a *arena) copy(b []byte) []byte {
	if len(a.cur)+len(b) > cap(a.cur) {
		n := arenaChunk
		for n < len(b) {
			n *= 2
		}
		a.cur = make([]byte, 0, n)
	}
	start := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[start : start+len(b) : start+len(b)]
}

// Append adds one row. The row must have exactly one value per column with
// matching kinds (Str/Raw are interchangeable for bytes/string columns).
func (b *Builder) Append(row []keyenc.Value) error {
	if len(row) != b.schema.NumCols() {
		return fmt.Errorf("columnar: row has %d values, schema has %d columns", len(row), b.schema.NumCols())
	}
	for i, v := range row {
		want := b.schema.Col(i).Kind
		got := v.Kind()
		compatible := got == want ||
			(want == keyenc.KindBytes && got == keyenc.KindString) ||
			(want == keyenc.KindString && got == keyenc.KindBytes)
		if !compatible {
			return fmt.Errorf("columnar: column %q: value kind %v, want %v", b.schema.Col(i).Name, got, want)
		}
	}
	for i, v := range row {
		col := &b.cols[i]
		switch b.schema.Col(i).Kind {
		case keyenc.KindInt64:
			col.nums = append(col.nums, uint64(v.Int()))
		case keyenc.KindUint64:
			col.nums = append(col.nums, v.Uint())
		case keyenc.KindFloat64:
			col.nums = append(col.nums, math.Float64bits(v.Float()))
		case keyenc.KindBool:
			if v.Bool() {
				col.nums = append(col.nums, 1)
			} else {
				col.nums = append(col.nums, 0)
			}
		case keyenc.KindBytes, keyenc.KindString:
			col.payload = append(col.payload, v.Bytes()...)
			col.offsets = append(col.offsets, uint32(len(col.payload)))
		}
		// Min/max must not alias caller-owned buffers: Raw retains its
		// slice, and callers commonly reuse row buffers across Appends.
		if b.rows == 0 || keyenc.Compare(v, b.mins[i]) < 0 {
			b.mins[i] = b.cloneValue(v)
		}
		if b.rows == 0 || keyenc.Compare(v, b.maxs[i]) > 0 {
			b.maxs[i] = b.cloneValue(v)
		}
	}
	b.rows++
	return nil
}

func (b *Builder) cloneValue(v keyenc.Value) keyenc.Value {
	switch v.Kind() {
	case keyenc.KindBytes:
		return keyenc.Raw(b.arena.copy(v.Bytes()))
	case keyenc.KindString:
		return keyenc.StrBytes(b.arena.copy(v.Bytes()))
	default:
		return v
	}
}

// NumRows returns the number of rows appended so far.
func (b *Builder) NumRows() int { return b.rows }

// Build freezes the builder into a Block: each column is rewritten to
// the encoding with the smallest estimated wire size and written into
// the block's stored bytes, and the block is the view Unmarshal returns
// of those bytes, so a built block and a fetched one are one kind of
// block. The builder must not be used afterwards.
func (b *Builder) Build() *Block {
	for i := range b.cols {
		chooseEncoding(&b.cols[i], b.schema.Col(i).Kind, b.rows, b.forceEnc)
	}
	blk, err := Unmarshal(b.marshal())
	if err != nil {
		panic("columnar: built block does not decode: " + err.Error())
	}
	blk.schema = b.schema // equal to the one decoded from the header
	return blk
}

// Schema returns the block's schema.
func (blk *Block) Schema() *Schema { return blk.schema }

// NumRows returns the number of rows in the block.
func (blk *Block) NumRows() int { return blk.rows }

// ColumnEncoding returns the physical encoding of the column.
func (blk *Block) ColumnEncoding(col int) Encoding { return blk.cols[col].enc }

// rawBits returns the 64-bit raw representation of a fixed-kind value,
// as stored in a plain column's nums.
func rawBits(v keyenc.Value) uint64 {
	switch v.Kind() {
	case keyenc.KindInt64:
		return uint64(v.Int())
	case keyenc.KindUint64:
		return v.Uint()
	case keyenc.KindFloat64:
		return math.Float64bits(v.Float())
	case keyenc.KindBool:
		if v.Bool() {
			return 1
		}
		return 0
	default:
		panic("columnar: rawBits of variable-kind value")
	}
}

// numAt returns the raw 64-bit word of a fixed column at row, whatever
// the encoding.
func (blk *Block) numAt(col, row int) uint64 {
	c := &blk.cols[col]
	switch c.enc {
	case EncPlain:
		return u64At(c.words, row)
	case EncBitPack:
		kind := blk.schema.Col(col).Kind
		return keyenc.SortKeyBitsInv(kind, c.base+packGet(c.words, c.width, row))
	case EncRLE:
		return u64At(c.words, c.runIndex(row))
	default:
		panic("columnar: numAt on variable-kind encoding")
	}
}

// varAt returns the payload bytes of a variable column at row, whatever
// the encoding. The slice aliases the block's bytes.
func (blk *Block) varAt(col, row int) []byte {
	c := &blk.cols[col]
	switch c.enc {
	case EncPlain:
		return c.entry(row)
	case EncDict:
		return c.entry(int(packGet(c.words, c.width, row)))
	case EncRLE:
		return c.entry(c.runIndex(row))
	default:
		panic("columnar: varAt on fixed-kind encoding")
	}
}

// Value returns the value at (row, col). It panics on out-of-range
// indices, mirroring slice semantics. Values of variable kinds alias the
// block's bytes; the block is immutable, so the slices are stable.
func (blk *Block) Value(row, col int) keyenc.Value {
	if row < 0 || row >= blk.rows {
		panic(fmt.Sprintf("columnar: row %d out of range [0,%d)", row, blk.rows))
	}
	switch blk.schema.Col(col).Kind {
	case keyenc.KindInt64:
		return keyenc.I64(int64(blk.numAt(col, row)))
	case keyenc.KindUint64:
		return keyenc.U64(blk.numAt(col, row))
	case keyenc.KindFloat64:
		return keyenc.F64(math.Float64frombits(blk.numAt(col, row)))
	case keyenc.KindBool:
		return keyenc.B(blk.numAt(col, row) != 0)
	case keyenc.KindBytes:
		return keyenc.Raw(blk.varAt(col, row))
	case keyenc.KindString:
		return keyenc.StrBytes(blk.varAt(col, row))
	default:
		panic("columnar: invalid column kind")
	}
}

// Row appends the values of one row to dst and returns it.
func (blk *Block) Row(row int, dst []keyenc.Value) []keyenc.Value {
	for c := 0; c < blk.schema.NumCols(); c++ {
		dst = append(dst, blk.Value(row, c))
	}
	return dst
}

// AppendNums appends the raw 64-bit words of a fixed column (int64 bits,
// uint64, float64 bits, bool 0/1) for every row to dst and returns it —
// the bulk decode used by scan loops that touch one narrow column, such
// as the executor's beginTS visibility pass.
func (blk *Block) AppendNums(col int, dst []uint64) []uint64 {
	c := &blk.cols[col]
	n := len(dst)
	dst = slices.Grow(dst, blk.rows)[:n+blk.rows]
	out := dst[n:]
	switch c.enc {
	case EncPlain:
		decodeWords(out, c.words)
	case EncBitPack:
		kind := blk.schema.Col(col).Kind
		var deltas [64]uint64
		for base := 0; base < blk.rows; base += 64 {
			vals := out[base:min(base+64, blk.rows)]
			unpack(c.words, c.width, base, chunkSel(len(vals)), &deltas)
			for i, d := range deltas[:len(vals)] {
				vals[i] = keyenc.SortKeyBitsInv(kind, c.base+d)
			}
		}
	case EncRLE:
		prev := 0
		for i := 0; prev < blk.rows; i++ {
			raw, end := u64At(c.words, i), c.runEnd(i)
			for ; prev < end; prev++ {
				out[prev] = raw
			}
		}
	default:
		panic("columnar: AppendNums on variable-kind column")
	}
	return dst
}

// NumsWord decodes one selection word of a fixed column: bit i of word
// selects row base+i, base a multiple of 64, and the raw 64-bit word (as
// AppendNums gives it) of the k-th selected row, in row order, lands in
// out[k]. Only the selected rows are decoded, straight from the encoding:
// a plain column reads its words, a bit-packed one unpacks its deltas, an
// RLE one walks forward from one run search. out past the selected count
// is left as it was.
func (blk *Block) NumsWord(col, base int, word uint64, out *[64]uint64) {
	c := &blk.cols[col]
	switch c.enc {
	case EncPlain:
		if word == ^uint64(0) {
			decodeWords(out[:], c.words[8*base:])
			return
		}
		for k := 0; word != 0; word &= word - 1 {
			out[k] = u64At(c.words, base+bits.TrailingZeros64(word))
			k++
		}
	case EncBitPack:
		kind := blk.schema.Col(col).Kind
		unpack(c.words, c.width, base, word, out)
		for k, d := range out[:bits.OnesCount64(word)] {
			out[k] = keyenc.SortKeyBitsInv(kind, c.base+d)
		}
	case EncRLE:
		if word == 0 {
			return
		}
		run := c.runIndex(base + bits.TrailingZeros64(word))
		end, raw := c.runEnd(run), u64At(c.words, run)
		for k := 0; word != 0; word &= word - 1 {
			for r := base + bits.TrailingZeros64(word); end <= r; {
				run++
				end, raw = c.runEnd(run), u64At(c.words, run)
			}
			out[k] = raw
			k++
		}
	default:
		panic("columnar: NumsWord on variable-kind column")
	}
}

// CodesWord is NumsWord for a dict-encoded column: the k-th selected
// row's dictionary code lands in out[k].
func (blk *Block) CodesWord(col, base int, word uint64, out *[64]uint64) {
	c := &blk.cols[col]
	if c.enc != EncDict {
		panic("columnar: CodesWord on a column that is not dict-encoded")
	}
	unpack(c.words, c.width, base, word, out)
}

// Dict is the sorted dictionary of a dict-encoded column: code i names
// Value(i), so code order is value order. It aliases the block's bytes.
type Dict struct {
	c   *column
	str bool
}

// Dict returns the dictionary of a dict-encoded column; ok is false for
// any other encoding.
func (blk *Block) Dict(col int) (d Dict, ok bool) {
	c := &blk.cols[col]
	if c.enc != EncDict {
		return Dict{}, false
	}
	return Dict{c: c, str: blk.schema.Col(col).Kind == keyenc.KindString}, true
}

// Len returns the number of dictionary entries.
func (d Dict) Len() int {
	if d.c == nil {
		return 0
	}
	return len(d.c.offsets)/4 - 1
}

// Value returns the value a code names.
func (d Dict) Value(code uint64) keyenc.Value {
	b := d.c.entry(int(code))
	if d.str {
		return keyenc.StrBytes(b)
	}
	return keyenc.Raw(b)
}

// ColumnMin returns the minimum value of the column; ok is false for an
// empty block.
func (blk *Block) ColumnMin(col int) (keyenc.Value, bool) {
	if blk.rows == 0 {
		return keyenc.Value{}, false
	}
	return blk.mins[col], true
}

// ColumnMax returns the maximum value of the column; ok is false for an
// empty block.
func (blk *Block) ColumnMax(col int) (keyenc.Value, bool) {
	if blk.rows == 0 {
		return keyenc.Value{}, false
	}
	return blk.maxs[col], true
}

// Synopsis is a block's row count and per-column min/max, detached from
// the block: it owns a copy of every bytes/string bound, so holding it
// pins neither the decoded block nor the object bytes it was decoded
// from. It answers NumRows, ColumnMin and ColumnMax as the block does,
// so a reader can prune a block it has not fetched.
type Synopsis struct {
	rows       int
	mins, maxs []keyenc.Value
}

// Synopsis returns the block's detached synopsis.
func (blk *Block) Synopsis() *Synopsis {
	s := &Synopsis{rows: blk.rows, mins: make([]keyenc.Value, len(blk.mins)), maxs: make([]keyenc.Value, len(blk.maxs))}
	for i := range blk.mins {
		s.mins[i], s.maxs[i] = detachValue(blk.mins[i]), detachValue(blk.maxs[i])
	}
	return s
}

// detachValue returns v with a private copy of its bytes payload, if any.
func detachValue(v keyenc.Value) keyenc.Value {
	switch v.Kind() {
	case keyenc.KindBytes:
		return keyenc.Raw(bytes.Clone(v.Bytes()))
	case keyenc.KindString:
		return keyenc.StrBytes(bytes.Clone(v.Bytes()))
	default:
		return v
	}
}

// NumRows returns the number of rows in the block.
func (s *Synopsis) NumRows() int { return s.rows }

// ColumnMin returns the minimum value of the column; ok is false for an
// empty block.
func (s *Synopsis) ColumnMin(col int) (keyenc.Value, bool) {
	if s.rows == 0 {
		return keyenc.Value{}, false
	}
	return s.mins[col], true
}

// ColumnMax returns the maximum value of the column; ok is false for an
// empty block.
func (s *Synopsis) ColumnMax(col int) (keyenc.Value, bool) {
	if s.rows == 0 {
		return keyenc.Value{}, false
	}
	return s.maxs[col], true
}

// CmpSelect compares every row of the column against v and writes the
// selection into out, one bit per row (word w bit b = row 64w+b), fully
// overwriting len(out) = ceil(rows/64) words; tail bits beyond the row
// count are left zero. A row is selected when its three-way comparison
// against v lands on an enabled flag: lt selects rows < v, eq rows == v,
// gt rows > v (so e.g. lt && eq is "<="). The comparison runs directly
// over the encoded column — sort-key words for fixed kinds, dictionary
// codes for dict columns, one comparison per run for RLE — which is what
// makes the vectorized filter path cheap.
func (blk *Block) CmpSelect(col int, v keyenc.Value, lt, eq, gt bool, out []uint64) {
	for i := range out {
		out[i] = 0
	}
	if blk.rows == 0 {
		return
	}
	c := &blk.cols[col]
	kind := blk.schema.Col(col).Kind
	if kind.Fixed() {
		tv := keyenc.SortKeyBits(kind, rawBits(v))
		switch c.enc {
		case EncPlain:
			var raws [64]uint64
			for base := 0; base < blk.rows; base += 64 {
				n := min(64, blk.rows-base)
				decodeWords(raws[:n], c.words[8*base:])
				var w uint64
				for i, raw := range raws[:n] {
					k := keyenc.SortKeyBits(kind, raw)
					if (lt && k < tv) || (eq && k == tv) || (gt && k > tv) {
						w |= 1 << uint(i)
					}
				}
				out[base>>6] = w
			}
		case EncBitPack:
			blk.cmpSelectBitPack(c, tv, lt, eq, gt, out)
		case EncRLE:
			c.setRuns(out, func(i int) bool {
				k := keyenc.SortKeyBits(kind, u64At(c.words, i))
				return (lt && k < tv) || (eq && k == tv) || (gt && k > tv)
			})
		}
		return
	}
	tb := v.Bytes()
	switch c.enc {
	case EncPlain:
		var w uint64
		for r := 0; r < blk.rows; r++ {
			cmp := bytes.Compare(c.entry(r), tb)
			if (lt && cmp < 0) || (eq && cmp == 0) || (gt && cmp > 0) {
				w |= 1 << uint(r&63)
			}
			if r&63 == 63 {
				out[r>>6] = w
				w = 0
			}
		}
		if blk.rows&63 != 0 {
			out[(blk.rows-1)>>6] = w
		}
	case EncDict:
		blk.cmpSelectDict(c, tb, lt, eq, gt, out)
	case EncRLE:
		c.setRuns(out, func(i int) bool {
			cmp := bytes.Compare(c.entry(i), tb)
			return (lt && cmp < 0) || (eq && cmp == 0) || (gt && cmp > 0)
		})
	}
}

// cmpSelectBitPack compares bit-packed deltas against the target sort
// key tv without reconstructing values: rows match on their delta's
// position relative to d = tv - base, and targets outside the delta
// domain collapse to a constant fill.
func (blk *Block) cmpSelectBitPack(c *column, tv uint64, lt, eq, gt bool, out []uint64) {
	if tv < c.base {
		// Every row's key >= base > tv.
		if gt {
			fillBits(out, blk.rows)
		}
		return
	}
	d := tv - c.base
	if c.width < 64 && d >= 1<<c.width {
		// Every row's delta < d, i.e. every key < tv.
		if lt {
			fillBits(out, blk.rows)
		}
		return
	}
	if c.width == 0 {
		// All rows equal base; tv >= base and d == 0 here.
		if eq {
			fillBits(out, blk.rows)
		}
		return
	}
	var deltas [64]uint64
	for base := 0; base < blk.rows; base += 64 {
		n := min(64, blk.rows-base)
		unpack(c.words, c.width, base, chunkSel(n), &deltas)
		var w uint64
		for i, dv := range deltas[:n] {
			if (lt && dv < d) || (eq && dv == d) || (gt && dv > d) {
				w |= 1 << uint(i)
			}
		}
		out[base>>6] = w
	}
}

// cmpSelectDict resolves the target value to a dictionary position once,
// then compares bit-packed codes against that position — one value
// comparison per distinct value instead of per row.
func (blk *Block) cmpSelectDict(c *column, tb []byte, lt, eq, gt bool, out []uint64) {
	ndict := len(c.offsets)/4 - 1
	lo, hi := 0, ndict
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(c.entry(mid), tb) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ci := uint64(lo)
	found := lo < ndict && bytes.Equal(c.entry(lo), tb)
	// Codes below ci are < target; codes >= ci are > target, except code
	// ci itself when the target is present in the dictionary.
	var codes [64]uint64
	for base := 0; base < blk.rows; base += 64 {
		n := min(64, blk.rows-base)
		unpack(c.words, c.width, base, chunkSel(n), &codes)
		var w uint64
		for i, code := range codes[:n] {
			var match bool
			switch {
			case code < ci:
				match = lt
			case found && code == ci:
				match = eq
			default:
				match = gt
			}
			if match {
				w |= 1 << uint(i)
			}
		}
		out[base>>6] = w
	}
}

// setRuns sets the bit ranges of the runs for which match(run) is true.
func (c *column) setRuns(out []uint64, match func(i int) bool) {
	start := 0
	for i := 0; i < len(c.ends)/4; i++ {
		end := c.runEnd(i)
		if match(i) {
			setRange(out, start, end)
		}
		start = end
	}
}

// setRange sets bits [from, to) of out.
func setRange(out []uint64, from, to int) {
	for b := from; b < to; {
		w := b >> 6
		lo := uint(b & 63)
		n := 64 - int(lo)
		if b+n > to {
			n = to - b
		}
		var mask uint64
		if n == 64 {
			mask = ^uint64(0)
		} else {
			mask = (1<<uint(n) - 1) << lo
		}
		out[w] |= mask
		b += n
	}
}

// fillBits sets the first n bits of out.
func fillBits(out []uint64, n int) {
	for i := 0; i < n/64; i++ {
		out[i] = ^uint64(0)
	}
	if n&63 != 0 {
		out[n>>6] = 1<<uint(n&63) - 1
	}
}
