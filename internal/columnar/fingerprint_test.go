package columnar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"umzi/internal/keyenc"
)

// fpPool returns the values a fingerprint test draws from for a kind:
// few enough that blocks repeat keys (so dict and RLE encode), with the
// edge cases equal-encoding must survive — signed zeros and NaN payloads,
// empty payloads, 0x00 bytes and payloads longer than one hash word.
func fpPool(k keyenc.Kind) []keyenc.Value {
	switch k {
	case keyenc.KindInt64:
		return []keyenc.Value{keyenc.I64(0), keyenc.I64(-1), keyenc.I64(1), keyenc.I64(math.MinInt64), keyenc.I64(math.MaxInt64), keyenc.I64(42)}
	case keyenc.KindUint64:
		return []keyenc.Value{keyenc.U64(0), keyenc.U64(1), keyenc.U64(math.MaxUint64), keyenc.U64(1 << 63), keyenc.U64(7)}
	case keyenc.KindFloat64:
		var out []keyenc.Value
		for _, bits := range []uint64{
			0,                  // +0
			1 << 63,            // -0
			0x7ff8000000000000, // quiet NaN
			0x7ff8000000000001, // NaN, other payload
			0xfff8000000000000, // negative NaN
			0x7ff0000000000000, // +Inf
			0xfff0000000000000, // -Inf
			math.Float64bits(1.5),
			math.Float64bits(-2.25),
		} {
			out = append(out, keyenc.F64(math.Float64frombits(bits)))
		}
		return out
	case keyenc.KindBool:
		return []keyenc.Value{keyenc.B(false), keyenc.B(true)}
	default:
		var out []keyenc.Value
		for _, s := range []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00", "abcdefgh", "abcdefgh\x00", "sensor-0001/room-17", "\xff\x00\x01"} {
			if k == keyenc.KindString {
				out = append(out, keyenc.Str(s))
			} else {
				out = append(out, keyenc.Raw([]byte(s)))
			}
		}
		return out
	}
}

// swapStrRaw returns v with the other variable-kind constructor: a Str
// becomes a Raw of the same payload and back. Fixed values are returned
// unchanged.
func swapStrRaw(v keyenc.Value) keyenc.Value {
	switch v.Kind() {
	case keyenc.KindString:
		return keyenc.Raw(append([]byte(nil), v.Bytes()...))
	case keyenc.KindBytes:
		return keyenc.Str(string(v.Bytes()))
	}
	return v
}

// TestKeyFingerprintsMatchScalar: the block kernel equals the scalar twin
// on every row, under every encoding a column can take (plain, dict,
// bitpack, RLE, forced and automatic), over every kind, for rows built
// with Str or Raw alike; and rows with equal keyenc encodings get equal
// fingerprints — a miss on an equal key would drop its shadow and return
// a stale row.
func TestKeyFingerprintsMatchScalar(t *testing.T) {
	kinds := []keyenc.Kind{
		keyenc.KindInt64, keyenc.KindUint64, keyenc.KindFloat64,
		keyenc.KindBool, keyenc.KindString, keyenc.KindBytes,
	}
	encs := []*Encoding{nil}
	for _, e := range []Encoding{EncPlain, EncDict, EncBitPack, EncRLE} {
		encs = append(encs, &e)
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		nCols := 2 + rng.Intn(3)
		cols := make([]Column, nCols)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: kinds[rng.Intn(len(kinds))]}
		}
		if trial < len(kinds) {
			cols[0].Kind = kinds[trial] // every kind leads a key at least once
		}
		key := []int{0}
		for c := 1; c < nCols; c++ {
			if rng.Intn(2) == 0 {
				key = append(key, c)
			}
		}
		nRows := rng.Intn(150)
		rows := make([][]keyenc.Value, nRows)
		sorted := rng.Intn(2) == 0 // long runs for RLE
		for r := range rows {
			row := make([]keyenc.Value, nCols)
			for c := range row {
				pool := fpPool(cols[c].Kind)
				i := rng.Intn(len(pool))
				if sorted {
					i = r * len(pool) / max(nRows, 1)
				}
				row[c] = pool[i]
				if rng.Intn(2) == 0 {
					row[c] = swapStrRaw(row[c])
				}
			}
			rows[r] = row
		}
		for _, enc := range encs {
			label := fmt.Sprintf("trial %d enc %v key %v cols %v", trial, encName(enc), key, cols)
			b := NewBuilder(MustSchema(cols...))
			if enc != nil {
				b.ForceEncoding(*enc)
			}
			for _, row := range rows {
				if err := b.Append(row); err != nil {
					t.Fatal(err)
				}
			}
			blk := b.Build()
			before := blk.MemSize()
			fps, published := blk.KeyFingerprints(key)
			if !published || len(fps) != nRows {
				t.Fatalf("%s: first call published=%v with %d fingerprints, want true and %d", label, published, len(fps), nRows)
			}
			if grown := blk.MemSize() - before; grown != 4*nRows {
				t.Fatalf("%s: MemSize grew %d bytes for %d fingerprints", label, grown, nRows)
			}
			if again, published := blk.KeyFingerprints(key); published || (nRows > 0 && &again[0] != &fps[0]) {
				t.Fatalf("%s: second call republished or recomputed", label)
			}
			byEnc := map[string]uint32{}
			for r, row := range rows {
				if fps[r] == 0 {
					t.Fatalf("%s: row %d has fingerprint 0", label, r)
				}
				scalar := KeyFingerprint(row, key)
				swapped := make([]keyenc.Value, len(row))
				for c, v := range row {
					swapped[c] = swapStrRaw(v)
				}
				if fps[r] != scalar || KeyFingerprint(swapped, key) != scalar {
					t.Fatalf("%s: row %d %v: block %08x, scalar %08x, Str/Raw swapped %08x",
						label, r, row, fps[r], scalar, KeyFingerprint(swapped, key))
				}
				var enc []byte
				for _, c := range key {
					enc = keyenc.Append(enc, row[c])
				}
				if fp, ok := byEnc[string(enc)]; ok && fp != fps[r] {
					t.Fatalf("%s: equal key encodings fingerprint %08x and %08x", label, fp, fps[r])
				}
				byEnc[string(enc)] = fps[r]
			}
		}
	}
}

func encName(e *Encoding) string {
	if e == nil {
		return "auto"
	}
	return e.String()
}

// TestKeyFingerprintsSpread: distinct keys rarely share a fingerprint,
// so the exact check after a hit stays rare.
func TestKeyFingerprintsSpread(t *testing.T) {
	b := NewBuilder(MustSchema(Column{Name: "device", Kind: keyenc.KindInt64}, Column{Name: "name", Kind: keyenc.KindString}))
	const n = 1 << 14
	for i := 0; i < n; i++ {
		if err := b.Append([]keyenc.Value{keyenc.I64(int64(i / 64)), keyenc.Str(fmt.Sprintf("m%d", i%64))}); err != nil {
			t.Fatal(err)
		}
	}
	fps, _ := b.Build().KeyFingerprints([]int{0, 1})
	seen := make(map[uint32]bool, n)
	for _, fp := range fps {
		seen[fp] = true
	}
	// n keys in 2^32 values: expect about n²/2^33 ≈ 0.03 collisions.
	if dup := n - len(seen); dup > 2 {
		t.Errorf("%d of %d distinct keys share a fingerprint", dup, n)
	}
}
