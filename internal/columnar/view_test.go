package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"umzi/internal/keyenc"
)

// readAll reads an accepted block through every read entry point: Value
// at every (row, col); NumsWord or CodesWord on every selection word,
// full and sparse; AppendNums, Dict and KeyFingerprints; and CmpSelect
// against each column's min and max. A block is a view that checks its
// bytes once at Unmarshal and reads them later, so a check Unmarshal
// misses shows up here as a panic.
func readAll(blk *Block) {
	rows, ncols := blk.NumRows(), blk.Schema().NumCols()
	all := make([]int, ncols)
	for c := range all {
		all[c] = c
		for r := 0; r < rows; r++ {
			blk.Value(r, c)
		}
	}
	blk.KeyFingerprints(all)
	sel := make([]uint64, (rows+63)/64)
	var out [64]uint64
	for c := 0; c < ncols; c++ {
		kind := blk.Schema().Col(c).Kind
		d, isDict := blk.Dict(c)
		for code := 0; code < d.Len(); code++ {
			d.Value(uint64(code))
		}
		if kind.Fixed() {
			blk.AppendNums(c, nil)
		}
		for base := 0; base < rows; base += 64 {
			valid := ^uint64(0) >> uint(64-min(64, rows-base))
			for _, word := range []uint64{valid, valid & 0x9249249249249249} {
				switch {
				case kind.Fixed():
					blk.NumsWord(c, base, word, &out)
				case isDict:
					blk.CodesWord(c, base, word, &out)
				}
			}
		}
		for _, bound := range []func(int) (keyenc.Value, bool){blk.ColumnMin, blk.ColumnMax} {
			if v, ok := bound(c); ok {
				blk.CmpSelect(c, v, true, true, false, sel)
				blk.CmpSelect(c, v, false, true, true, sel)
			}
		}
	}
}

// TestUnmarshalAllocs: Unmarshal allocates a constant number of times,
// the same for 64 rows as for 4,096 under every encoding — it decodes a
// per-column directory and the min/max bounds, never a column body.
func TestUnmarshalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations")
	}
	const budget = 25 // six columns: schema and names, directory, bounds
	build := func(rows int, force *Encoding) []byte {
		b := NewBuilder(kernelBlock(t).Schema())
		if force != nil {
			b.ForceEncoding(*force)
		}
		for r := 0; r < rows; r++ {
			row := []keyenc.Value{
				keyenc.I64(int64(r * 3)),
				keyenc.U64(1<<40 + uint64(r*r)),
				keyenc.F64(float64(r) / 7),
				keyenc.Str(fmt.Sprintf("tag-%02d", r%40)),
				keyenc.Raw([]byte(fmt.Sprintf("payload-%d", r))),
				keyenc.U64(1<<50 + uint64(r/1000)),
			}
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build().Marshal()
	}
	forces := []*Encoding{nil}
	for _, e := range []Encoding{EncPlain, EncDict, EncBitPack, EncRLE} {
		forces = append(forces, &e)
	}
	var want float64
	for i, force := range forces {
		for _, rows := range []int{64, 4096} {
			data := build(rows, force)
			got := testing.AllocsPerRun(20, func() {
				if _, err := Unmarshal(data); err != nil {
					t.Fatal(err)
				}
			})
			if i == 0 && rows == 64 {
				want = got
			}
			label := "auto"
			if force != nil {
				label = force.String()
			}
			if got != want || got > budget {
				t.Errorf("%s, %d rows: Unmarshal made %v allocations, want %v for every row count and encoding (budget %d)", label, rows, got, want, budget)
			}
		}
	}
}

// setCode overwrites the width-bit packed value of row in big-endian
// packed words.
func setCode(words []byte, width uint8, row int, v uint64) {
	for b := 0; b < int(width); b++ {
		bit := row*int(width) + b
		at := bit/64*8 + 7 - bit%64/8
		mask := byte(1) << uint(bit%8)
		if v>>uint(b)&1 != 0 {
			words[at] |= mask
		} else {
			words[at] &^= mask
		}
	}
}

// TestDictCodeOutOfRange: a dictionary code at or past the dictionary's
// size fails Unmarshal wherever it sits — the first row, a value that
// straddles two packed words, the last row — and the error names the
// row. Five entries take 3-bit codes, so codes 5–7 fit the width but
// name no entry.
func TestDictCodeOutOfRange(t *testing.T) {
	const rows = 100
	b := NewBuilder(MustSchema(Column{"n", keyenc.KindInt64}, Column{"tag", keyenc.KindString}))
	b.ForceEncoding(EncDict)
	for r := 0; r < rows; r++ {
		if err := b.Append([]keyenc.Value{keyenc.I64(int64(r)), keyenc.Str(fmt.Sprint(r % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	blk := b.Build()
	c := &blk.cols[1]
	if c.enc != EncDict || c.width != 3 {
		t.Fatalf("setup: tag is %v at width %d, want dict at width 3", c.enc, c.width)
	}
	// tag is the last column, so its packed codes end the block.
	data := blk.Marshal()
	wordsAt := len(data) - len(c.words)
	for _, row := range []int{0, 21, rows - 1} { // row 21's bits are 63–65
		bad := bytes.Clone(data)
		setCode(bad[wordsAt:], c.width, row, 7)
		_, err := Unmarshal(bad)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at row %d", row)) {
			t.Errorf("code 7 of 5 at row %d: Unmarshal error %v, want one naming the row", row, err)
		}
		setCode(bad[wordsAt:], c.width, row, 4)
		if _, err := Unmarshal(bad); err != nil {
			t.Errorf("code 4 of 5 at row %d rejected: %v", row, err)
		}
	}
}

// handDict writes a one-row block whose only column is a dictionary of
// one entry with 64-bit codes, its one code being code: no width-bit
// code is in range by construction there, so Unmarshal must check it.
func handDict(code uint64) []byte {
	bound := keyenc.Append(nil, keyenc.Str("a"))
	out := append([]byte(blockMagic), 0, 0, 0, 1, 0, 1) // 1 row, 1 column
	out = append(out, byte(keyenc.KindString), 0, 1, 's', 1)
	for range 2 {
		out = binary.BigEndian.AppendUint32(out, uint32(len(bound)))
		out = append(out, bound...)
	}
	out = append(out, byte(EncDict), 0, 0, 0, 1) // ndict 1
	out = binary.BigEndian.AppendUint32(out, 0)
	out = binary.BigEndian.AppendUint32(out, 1)
	out = append(out, 'a', 64, 0, 0, 0, 1) // payload, width 64, 1 word
	return binary.BigEndian.AppendUint64(out, code)
}

// TestDictCodeCheckAtWidth64 keeps the full check at width 64, where
// 2^width does not fit a word and the by-construction skip cannot apply.
func TestDictCodeCheckAtWidth64(t *testing.T) {
	blk, err := Unmarshal(handDict(0))
	if err != nil {
		t.Fatalf("a valid width-64 dictionary column was rejected: %v", err)
	}
	if got := blk.Value(0, 0); got.String() != keyenc.Str("a").String() {
		t.Fatalf("row 0 = %v, want a", got)
	}
	if _, err := Unmarshal(handDict(1 << 63)); err == nil {
		t.Fatal("a width-64 code past the dictionary was accepted")
	}
}

// TestCorruptBlockFailsOrReads: every proper prefix of a block and the
// block with a byte appended fail Unmarshal, and for every single-bit
// flip the result either fails Unmarshal or is a block every read of
// which stays in bounds. A flip inside a stored value is accepted and
// reads as a different value: the format carries no checksum.
func TestCorruptBlockFailsOrReads(t *testing.T) {
	var blocks [][]byte
	for _, enc := range []Encoding{EncPlain, EncDict, EncBitPack, EncRLE} {
		b := NewBuilder(testSchema(t))
		b.ForceEncoding(enc)
		for _, row := range sampleRows() {
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		blocks = append(blocks, b.Build().Marshal())
	}
	for i, data := range blocks {
		for n := 0; n < len(data); n++ {
			if _, err := Unmarshal(data[:n:n]); err == nil {
				t.Fatalf("block %d: a %d-byte prefix of %d bytes was accepted", i, n, len(data))
			}
		}
		if _, err := Unmarshal(append(bytes.Clone(data), 0)); err == nil {
			t.Fatalf("block %d: a trailing byte was accepted", i)
		}
		for bit := 0; bit < 8*len(data); bit++ {
			bad := bytes.Clone(data)
			bad[bit/8] ^= 1 << uint(bit%8)
			blk, err := Unmarshal(bad)
			if err != nil {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("block %d, bit %d flipped: a read panicked: %v", i, bit, r)
					}
				}()
				readAll(blk)
			}()
		}
	}
}

// TestBlockIsItsBytes: a block holds its stored bytes and nothing
// decoded from them. Marshal returns the very bytes Unmarshal was given,
// a built block's Marshal returns the bytes it reads, and MemSize
// charges the held bytes by capacity.
func TestBlockIsItsBytes(t *testing.T) {
	built := kernelBlock(t)
	data := built.Marshal()
	if &built.data[0] != &data[0] {
		t.Fatal("a built block's Marshal returned a copy")
	}
	padded := append(make([]byte, 0, len(data)+512), data...)
	blk, err := Unmarshal(padded)
	if err != nil {
		t.Fatal(err)
	}
	if got := blk.Marshal(); &got[0] != &padded[0] || len(got) != len(data) {
		t.Fatal("Marshal of a fetched block is not the bytes it was decoded from")
	}
	if got, want := blk.MemSize()-built.MemSize(), 512; got != want {
		t.Fatalf("MemSize grew by %d for 512 bytes of spare capacity, want %d", got, want)
	}
}

// TestUnpackMatchesPackGet: at every width 0–64, unpacking a 64-row
// chunk — full, the short last one, or a sparse selection of it — and
// packGet on one row both read back the value packPut stored,
// straddling values included.
func TestUnpackMatchesPackGet(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const rows = 200
	for width := uint8(0); width <= 64; width++ {
		vals := make([]uint64, rows)
		packed := make([]uint64, packedWords(rows, width))
		for r := range vals {
			vals[r] = rng.Uint64() & (uint64(1)<<width - 1)
			packPut(packed, width, r, vals[r])
		}
		words := appendU64s(nil, packed)
		var out [64]uint64
		for base := 0; base < rows; base += 64 {
			n := min(64, rows-base)
			for _, sel := range []uint64{chunkSel(n), chunkSel(n) & rng.Uint64()} {
				unpack(words, width, base, sel, &out)
				k := 0
				for i, want := range vals[base : base+n] {
					if packGet(words, width, base+i) != want {
						t.Fatalf("width %d row %d: packGet %#x, want %#x", width, base+i, packGet(words, width, base+i), want)
					}
					if sel>>uint(i)&1 == 0 {
						continue
					}
					if out[k] != want {
						t.Fatalf("width %d row %d, selection %#x: unpack %#x, want %#x", width, base+i, sel, out[k], want)
					}
					k++
				}
			}
		}
	}
}
