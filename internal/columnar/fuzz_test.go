package columnar

import (
	"bytes"
	"slices"
	"testing"

	"umzi/internal/keyenc"
)

// FuzzColumnarUnmarshal: whatever the bytes, Unmarshal never panics. A
// block it accepts re-marshals byte-stably (the marshaled bytes decode
// and marshal to themselves), its Synopsis agrees with ColumnMin and
// ColumnMax on every column, and the synopsis stays the same after the
// decoded bytes are overwritten — it aliases neither them nor the block.
// Seeds are the sample block and its one-row prefix under every forced
// encoding, and an empty block.
func FuzzColumnarUnmarshal(f *testing.F) {
	schema := MustSchema(
		Column{"device", keyenc.KindInt64},
		Column{"msg", keyenc.KindUint64},
		Column{"temp", keyenc.KindFloat64},
		Column{"tag", keyenc.KindString},
		Column{"payload", keyenc.KindBytes},
		Column{"ok", keyenc.KindBool},
	)
	f.Add(NewBuilder(schema).Build().Marshal())
	for _, enc := range []Encoding{EncPlain, EncDict, EncBitPack, EncRLE} {
		for _, rows := range [][][]keyenc.Value{sampleRows(), sampleRows()[:1]} {
			b := NewBuilder(schema)
			b.ForceEncoding(enc)
			for _, row := range rows {
				if err := b.Append(row); err != nil {
					f.Fatal(err)
				}
			}
			f.Add(b.Build().Marshal())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		blk, err := Unmarshal(data)
		if err != nil {
			return
		}
		again := blk.Marshal()
		blk2, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshaled block does not decode: %v", err)
		}
		if !bytes.Equal(blk2.Marshal(), again) {
			t.Fatal("re-marshaled block is not byte-stable")
		}

		syn := blk.Synopsis()
		if syn.NumRows() != blk.NumRows() {
			t.Fatalf("synopsis rows = %d, block rows = %d", syn.NumRows(), blk.NumRows())
		}
		bounds := func(s interface {
			ColumnMin(int) (keyenc.Value, bool)
			ColumnMax(int) (keyenc.Value, bool)
		}) []string {
			var out []string
			for c := 0; c < blk.Schema().NumCols(); c++ {
				for _, get := range []func(int) (keyenc.Value, bool){s.ColumnMin, s.ColumnMax} {
					v, ok := get(c)
					out = append(out, fmtBound(v, ok))
				}
			}
			return out
		}
		want := bounds(blk)
		if got := bounds(syn); !slices.Equal(got, want) {
			t.Fatalf("synopsis bounds %q, block bounds %q", got, want)
		}
		for i := range data {
			data[i] = 0xA5
		}
		if got := bounds(syn); !slices.Equal(got, want) {
			t.Fatalf("synopsis bounds changed with the input bytes: %q, was %q", got, want)
		}
	})
}

// fmtBound renders a bound exactly: kind, presence and payload.
func fmtBound(v keyenc.Value, ok bool) string {
	if !ok {
		return "absent"
	}
	return v.Kind().String() + ":" + v.String()
}
