package columnar

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"umzi/internal/keyenc"
)

// TestRandomBlocksRoundTrip builds blocks with random schemas and rows and
// verifies that (a) every value reads back equal, (b) per-column min/max
// match a naive computation, and (c) Marshal/Unmarshal is the identity on
// all observable state.
func TestRandomBlocksRoundTrip(t *testing.T) {
	kinds := []keyenc.Kind{
		keyenc.KindInt64, keyenc.KindUint64, keyenc.KindFloat64,
		keyenc.KindString, keyenc.KindBytes, keyenc.KindBool,
	}
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nCols := 1 + rng.Intn(6)
		cols := make([]Column, nCols)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: kinds[rng.Intn(len(kinds))]}
		}
		schema, err := NewSchema(cols...)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(schema)
		nRows := rng.Intn(200)
		rows := make([][]keyenc.Value, nRows)
		for r := range rows {
			row := make([]keyenc.Value, nCols)
			for c := range row {
				row[c] = randVal(rng, cols[c].Kind)
			}
			rows[r] = row
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		blk := b.Build()

		check := func(blk *Block, label string) {
			t.Helper()
			if blk.NumRows() != nRows {
				t.Fatalf("trial %d %s: rows = %d, want %d", trial, label, blk.NumRows(), nRows)
			}
			for r := range rows {
				for c := range rows[r] {
					if keyenc.Compare(blk.Value(r, c), rows[r][c]) != 0 {
						t.Fatalf("trial %d %s: (%d,%d) = %v, want %v", trial, label, r, c, blk.Value(r, c), rows[r][c])
					}
				}
			}
			for c := 0; c < nCols; c++ {
				min, okMin := blk.ColumnMin(c)
				max, okMax := blk.ColumnMax(c)
				if nRows == 0 {
					if okMin || okMax {
						t.Fatalf("trial %d %s: empty block has min/max", trial, label)
					}
					continue
				}
				wantMin, wantMax := rows[0][c], rows[0][c]
				for r := 1; r < nRows; r++ {
					if keyenc.Compare(rows[r][c], wantMin) < 0 {
						wantMin = rows[r][c]
					}
					if keyenc.Compare(rows[r][c], wantMax) > 0 {
						wantMax = rows[r][c]
					}
				}
				if !okMin || keyenc.Compare(min, wantMin) != 0 {
					t.Fatalf("trial %d %s: col %d min = %v, want %v", trial, label, c, min, wantMin)
				}
				if !okMax || keyenc.Compare(max, wantMax) != 0 {
					t.Fatalf("trial %d %s: col %d max = %v, want %v", trial, label, c, max, wantMax)
				}
			}
		}
		check(blk, "built")
		decoded, err := Unmarshal(blk.Marshal())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		check(decoded, "round-tripped")
	}
}

// TestForcedEncodingsRoundTrip exercises every encoding explicitly: for
// each forced encoding it builds random blocks, checks that
// kind-compatible columns actually took the forced encoding, and verifies
// values and encodings survive Marshal/Unmarshal.
func TestForcedEncodingsRoundTrip(t *testing.T) {
	kinds := []keyenc.Kind{
		keyenc.KindInt64, keyenc.KindUint64, keyenc.KindFloat64,
		keyenc.KindString, keyenc.KindBytes, keyenc.KindBool,
	}
	encs := []Encoding{EncPlain, EncDict, EncBitPack, EncRLE}
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for _, force := range encs {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*31 + int64(force)))
			nCols := 1 + rng.Intn(5)
			cols := make([]Column, nCols)
			for i := range cols {
				cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: kinds[rng.Intn(len(kinds))]}
			}
			b := NewBuilder(MustSchema(cols...))
			b.ForceEncoding(force)
			nRows := 1 + rng.Intn(150)
			rows := make([][]keyenc.Value, nRows)
			for r := range rows {
				row := make([]keyenc.Value, nCols)
				for c := range row {
					// Low-cardinality draws so dict and RLE have something
					// to chew on; the forced path must hold regardless.
					if rng.Intn(2) == 0 {
						row[c] = lowCardVal(rng, cols[c].Kind)
					} else {
						row[c] = randVal(rng, cols[c].Kind)
					}
				}
				rows[r] = row
				if err := b.Append(row); err != nil {
					t.Fatal(err)
				}
			}
			blk := b.Build()

			check := func(blk *Block, label string) {
				t.Helper()
				for c := range cols {
					got := blk.ColumnEncoding(c)
					want := force
					if (force == EncDict && cols[c].Kind.Fixed()) ||
						(force == EncBitPack && !cols[c].Kind.Fixed()) {
						want = EncPlain // kind-incompatible force falls back
					}
					if got != want {
						t.Fatalf("%v trial %d %s: col %d (%v) encoding = %v, want %v",
							force, trial, label, c, cols[c].Kind, got, want)
					}
					// Dict serves dict columns only: its value at row r's
					// code is row r's value, over a strictly ascending dict.
					checkDict(t, blk, c, rows, fmt.Sprintf("%v trial %d %s", force, trial, label))
				}
				for r := range rows {
					for c := range rows[r] {
						if keyenc.Compare(blk.Value(r, c), rows[r][c]) != 0 {
							t.Fatalf("%v trial %d %s: (%d,%d) = %v, want %v",
								force, trial, label, r, c, blk.Value(r, c), rows[r][c])
						}
					}
				}
			}
			check(blk, "built")
			decoded, err := Unmarshal(blk.Marshal())
			if err != nil {
				t.Fatalf("%v trial %d: %v", force, trial, err)
			}
			check(decoded, "round-tripped")
			if ps := blk.PlainSize(); len(blk.Marshal()) <= 0 || ps <= 0 {
				t.Fatalf("%v trial %d: non-positive sizes", force, trial)
			}
		}
	}
}

// TestAutoEncodingPicksCompact checks the auto selector's headline cases:
// repeated strings dictionary-encode, small-range ints bit-pack, sorted
// repetitive columns run-length-encode, and incompressible data stays
// plain — and that the encoded marshal never exceeds the plain layout.
func TestAutoEncodingPicksCompact(t *testing.T) {
	schema := MustSchema(
		Column{"region", keyenc.KindString},
		Column{"qty", keyenc.KindInt64},
		Column{"day", keyenc.KindUint64},
		Column{"blob", keyenc.KindBytes},
	)
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(schema)
	for r := 0; r < 512; r++ {
		blob := make([]byte, 16)
		rng.Read(blob)
		row := []keyenc.Value{
			keyenc.Str(fmt.Sprintf("region-%d", r%4)),
			keyenc.I64(int64(r % 100)),
			keyenc.U64(uint64(r / 128)), // sorted, 4 distinct values
			keyenc.Raw(blob),
		}
		if err := b.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	blk := b.Build()
	wantEnc := []Encoding{EncDict, EncBitPack, EncRLE, EncPlain}
	for c, want := range wantEnc {
		if got := blk.ColumnEncoding(c); got != want {
			t.Errorf("col %d encoding = %v, want %v", c, got, want)
		}
	}
	if enc, plain := len(blk.Marshal()), blk.PlainSize(); enc >= plain {
		t.Errorf("encoded size %d not smaller than plain %d", enc, plain)
	}
}

// TestV1MagicRejected: the pre-encoding "UMZICOL1" layout and the
// "UMZICOL2" layout with per-column filters are gone, so an object
// carrying either magic — here an otherwise well-formed current block —
// must fail Unmarshal with an error, never decode.
func TestV1MagicRejected(t *testing.T) {
	schema, err := NewSchema(Column{Name: "c0", Kind: keyenc.KindInt64})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(schema)
	b.Append([]keyenc.Value{keyenc.I64(7)})
	data := b.Build().Marshal()
	if _, err := Unmarshal(data); err != nil {
		t.Fatalf("current block rejected: %v", err)
	}
	for _, magic := range []string{"UMZICOL1", "UMZICOL2"} {
		copy(data, magic)
		if blk, err := Unmarshal(data); err == nil {
			t.Fatalf("%s object decoded into %d rows", magic, blk.NumRows())
		}
	}
}

// lowCardVal draws from a handful of distinct values per kind.
func lowCardVal(rng *rand.Rand, k keyenc.Kind) keyenc.Value {
	n := int64(rng.Intn(5))
	switch k {
	case keyenc.KindInt64:
		return keyenc.I64(n * 100)
	case keyenc.KindUint64:
		return keyenc.U64(uint64(n))
	case keyenc.KindFloat64:
		return keyenc.F64(float64(n) * 2.5)
	case keyenc.KindString:
		return keyenc.Str(fmt.Sprintf("v%d", n))
	case keyenc.KindBytes:
		return keyenc.Raw([]byte{byte(n), byte(n)})
	default:
		return keyenc.B(n%2 == 1)
	}
}

func randVal(rng *rand.Rand, k keyenc.Kind) keyenc.Value {
	switch k {
	case keyenc.KindInt64:
		return keyenc.I64(rng.Int63() - 1<<62)
	case keyenc.KindUint64:
		return keyenc.U64(rng.Uint64())
	case keyenc.KindFloat64:
		return keyenc.F64((rng.Float64() - 0.5) * 1e9)
	case keyenc.KindString:
		b := make([]byte, rng.Intn(20))
		rng.Read(b)
		return keyenc.Str(string(b))
	case keyenc.KindBytes:
		b := make([]byte, rng.Intn(20))
		rng.Read(b)
		return keyenc.Raw(b)
	default:
		return keyenc.B(rng.Intn(2) == 1)
	}
}

// TestAutoDictMatchesForced: the auto selector hands its dictionary to
// the dict encoder, so a variable column it encodes must marshal to the
// same bytes as the same rows built with that encoding forced.
func TestAutoDictMatchesForced(t *testing.T) {
	long := strings.Repeat("shared-prefix/", 8)
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, r int) []byte
	}{
		{"all-equal", func(*rand.Rand, int) []byte { return []byte("same") }},
		{"two-values", func(rng *rand.Rand, _ int) []byte { return []byte([]string{"a", "bb"}[rng.Intn(2)]) }},
		{"distinct", func(_ *rand.Rand, r int) []byte { return []byte(fmt.Sprintf("v%06d", r)) }},
		{"empty", func(rng *rand.Rand, _ int) []byte { return []byte([]string{"", "", "x"}[rng.Intn(3)]) }},
		{"long-prefix", func(rng *rand.Rand, _ int) []byte { return []byte(fmt.Sprintf("%s%d", long, rng.Intn(6))) }},
	}
	build := func(kind keyenc.Kind, vals [][]byte, force *Encoding) *Block {
		b := NewBuilder(MustSchema(Column{Name: "v", Kind: kind}))
		if force != nil {
			b.ForceEncoding(*force)
		}
		for _, v := range vals {
			val := keyenc.Raw(v)
			if kind == keyenc.KindString {
				val = keyenc.Str(string(v))
			}
			if err := b.Append([]keyenc.Value{val}); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	dicts := 0
	for _, g := range gens {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			vals := make([][]byte, 1+rng.Intn(300))
			for r := range vals {
				vals[r] = g.gen(rng, r)
			}
			for _, kind := range []keyenc.Kind{keyenc.KindString, keyenc.KindBytes} {
				auto := build(kind, vals, nil)
				enc := auto.ColumnEncoding(0)
				if enc == EncDict {
					dicts++
				}
				forced := build(kind, vals, &enc)
				if !bytes.Equal(auto.Marshal(), forced.Marshal()) {
					t.Fatalf("%s trial %d %v: auto %v block differs from forced", g.name, trial, kind, enc)
				}
			}
		}
	}
	if dicts == 0 {
		t.Fatal("no column chose EncDict")
	}
}

// checkDict checks a column's dictionary accessor against the block: a
// dict column has a strictly ascending dictionary whose value at row r's
// code is row r's value, of its kind; any other column has none.
func checkDict(t *testing.T, blk *Block, col int, rows [][]keyenc.Value, label string) {
	t.Helper()
	d, ok := blk.Dict(col)
	if ok != (blk.ColumnEncoding(col) == EncDict) || (!ok && d.Len() != 0) {
		t.Fatalf("%s: col %d (%v): Dict ok=%v len %d", label, col, blk.ColumnEncoding(col), ok, d.Len())
	}
	if !ok {
		return
	}
	for i := 1; i < d.Len(); i++ {
		if keyenc.Compare(d.Value(uint64(i-1)), d.Value(uint64(i))) >= 0 {
			t.Fatalf("%s: col %d: dict not strictly ascending at %d", label, col, i)
		}
	}
	var codes [64]uint64
	for base := 0; base < len(rows); base += 64 {
		n := min(64, len(rows)-base)
		blk.CodesWord(col, base, lowBits(n), &codes)
		for k := 0; k < n; k++ {
			r := base + k
			if v := d.Value(codes[k]); v.Kind() != blk.Value(r, col).Kind() || keyenc.Compare(v, rows[r][col]) != 0 {
				t.Fatalf("%s: (%d,%d): dict value %v, want %v", label, r, col, v, rows[r][col])
			}
		}
	}
}

// lowBits returns a word with its n lowest bits set.
func lowBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// TestWordDecodersProperty: NumsWord and CodesWord agree with Value at
// every selected row, in row order, and touch nothing past the selected
// count. Blocks carry one column of every kind under every encoding,
// forced and automatic (long runs make RLE win, few distinct values
// make dict and bit-pack win), with row counts on and off a word
// boundary; each word is decoded empty, full, sparse and as one bit.
func TestWordDecodersProperty(t *testing.T) {
	kinds := []keyenc.Kind{
		keyenc.KindInt64, keyenc.KindUint64, keyenc.KindFloat64,
		keyenc.KindString, keyenc.KindBytes, keyenc.KindBool,
	}
	cols := make([]Column, len(kinds))
	for i, k := range kinds {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: k}
	}
	schema := MustSchema(cols...)
	forces := []*Encoding{nil}
	for _, e := range []Encoding{EncPlain, EncDict, EncBitPack, EncRLE} {
		forces = append(forces, &e)
	}
	const sentinel = 0x5a5a5a5a5a5a5a5a
	seen := map[Encoding]int{}
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 120; trial++ {
		force := forces[trial%len(forces)]
		nRows := []int{0, 1, 63, 64, 65, 127, 128, 129, 1 + rng.Intn(400)}[rng.Intn(9)]
		b := NewBuilder(schema)
		if force != nil {
			b.ForceEncoding(*force)
		}
		// Per trial, values are runs (a new value with probability 1/20),
		// a few distinct values, or random ones.
		style := rng.Intn(3)
		rows := make([][]keyenc.Value, nRows)
		for r := range rows {
			row := make([]keyenc.Value, len(kinds))
			for c, k := range kinds {
				switch {
				case style == 0 && r > 0 && rng.Intn(20) != 0:
					row[c] = rows[r-1][c]
				case style == 1:
					row[c] = lowCardVal(rng, k)
				default:
					row[c] = randVal(rng, k)
				}
			}
			rows[r] = row
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		blk := b.Build()
		for c, k := range kinds {
			enc := blk.ColumnEncoding(c)
			seen[enc]++
			if !k.Fixed() && enc != EncDict {
				continue
			}
			label := fmt.Sprintf("trial %d (%d rows) col %d (%v %v)", trial, nRows, c, k, enc)
			checkDict(t, blk, c, rows, label)
			d, _ := blk.Dict(c)
			for base := 0; base < nRows; base += 64 {
				valid := lowBits(nRows - base)
				one := uint64(1) << uint(rng.Intn(min(64, nRows-base)))
				for _, word := range []uint64{0, valid, rng.Uint64() & rng.Uint64() & valid, one} {
					var out [64]uint64
					for i := range out {
						out[i] = sentinel
					}
					if k.Fixed() {
						blk.NumsWord(c, base, word, &out)
					} else {
						blk.CodesWord(c, base, word, &out)
					}
					kk := 0
					for wd := word; wd != 0; wd &= wd - 1 {
						r := base + bits.TrailingZeros64(wd)
						want := blk.Value(r, c)
						if k.Fixed() {
							if out[kk] != rawBits(want) {
								t.Fatalf("%s: word %#x row %d: raw %#x, want %#x", label, word, r, out[kk], rawBits(want))
							}
						} else if got := d.Value(out[kk]); keyenc.Compare(got, want) != 0 || got.Kind() != want.Kind() {
							t.Fatalf("%s: word %#x row %d: code %d names %v, want %v", label, word, r, out[kk], got, want)
						}
						kk++
					}
					for ; kk < 64; kk++ {
						if out[kk] != sentinel {
							t.Fatalf("%s: word %#x wrote out[%d] past its %d selected rows", label, word, kk, bits.OnesCount64(word))
						}
					}
				}
			}
		}
	}
	for _, e := range []Encoding{EncPlain, EncDict, EncBitPack, EncRLE} {
		if seen[e] == 0 {
			t.Errorf("no column took %v; the property went unexercised there", e)
		}
	}
}
