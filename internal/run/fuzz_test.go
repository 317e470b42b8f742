package run

import (
	"reflect"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// fuzzSeeds returns serialized runs of the shapes the format has edges
// on: empty, below and above a restart interval, many small blocks, a
// string key with included columns, no offset array.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, n := range []int{0, 1, restartInterval + 1, 300} {
		data, _ := buildRun(t, defI1(), n, 7, 256)
		seeds = append(seeds, data)
	}
	def := Def{
		EqualityKinds: []keyenc.Kind{keyenc.KindString},
		SortKinds:     []keyenc.Kind{keyenc.KindUint64},
		IncludedKinds: []keyenc.Kind{keyenc.KindFloat64, keyenc.KindString},
	}
	b, err := NewBuilder(def, Meta{Zone: types.ZonePostGroomed, Level: 7, PSN: 3, Blocks: types.BlockRange{Min: 40, Max: 90}, Ancestors: []string{"t/z1/run-1"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		err := b.AddValues([]keyenc.Value{keyenc.Str("sensor\x00" + string(rune('a'+i%5)))}, []keyenc.Value{keyenc.U64(uint64(i / 5))},
			[]keyenc.Value{keyenc.F64(float64(i)), keyenc.Str("ok")}, types.MakeTS(uint64(i%4+1), uint32(i)),
			types.RID{Zone: types.ZonePostGroomed, Block: uint64(i % 9), Offset: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return append(seeds, data)
}

// FuzzOpenObject: whatever the bytes, opening, scanning and seeking a run
// never panics; a header that parses declares no more blocks or entries
// than the object has bytes for; and a scan that reports no error yields
// exactly the declared entries, in order.
func FuzzOpenObject(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenObject(data)
		if err != nil {
			return
		}
		h := r.Header()
		if h.Entries > uint64(len(data)) || len(h.BlockIndex) > len(data) || h.DataEnd > uint64(len(data)) {
			t.Fatalf("header declares %d entries, %d blocks, %d data bytes in a %d-byte object", h.Entries, len(h.BlockIndex), h.DataEnd, len(data))
		}
		var all []Entry
		it := r.Begin()
		for ; it.Valid(); it.Next() {
			e, err := it.Entry()
			if err != nil {
				break
			}
			if n := len(all); n > 0 && Compare(all[n-1], e) > 0 {
				t.Fatalf("entry %d sorts before entry %d", n, n-1)
			}
			all = append(all, e)
		}
		it.Close()
		if it.Err() == nil && uint64(len(all)) != h.Entries {
			t.Fatalf("clean scan yielded %d of %d entries", len(all), h.Entries)
		}
		// Seeks must not panic either; where they land is only as good as
		// the offset array and block index, which nothing checksums yet.
		for i := 0; i < len(all); i += 1 + len(all)/8 {
			if it, err := r.SeekGE(SearchKey{Hash: all[i].Hash, Key: all[i].Key}); err == nil {
				if it.Valid() {
					_, _ = it.Entry()
				}
				it.Close()
			}
		}
	})
}

// FuzzParseHeader: parsing never panics, what parses declares no more
// elements than the bytes could hold, and it survives a re-marshal.
func FuzzParseHeader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		off, l, err := ParseFooter(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s[off : off+uint64(l)])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseHeader(b)
		if err != nil {
			return
		}
		if len(h.BlockIndex) > len(b) || len(h.Meta.Ancestors) > len(b) {
			t.Fatalf("%d blocks and %d ancestors from %d bytes", len(h.BlockIndex), len(h.Meta.Ancestors), len(b))
		}
		again, err := ParseHeader(appendHeader(nil, h))
		if err != nil {
			t.Fatalf("re-marshalled header does not parse: %v", err)
		}
		if !reflect.DeepEqual(h, again) {
			t.Fatalf("header changed across a re-marshal:\n%+v\n%+v", h, again)
		}
	})
}
