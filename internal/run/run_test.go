package run

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// defI1 mirrors the paper's default index definition I1: one equality
// column, one sort column, one included column (all int64, §8.1).
func defI1() Def {
	return Def{
		EqualityKinds: []keyenc.Kind{keyenc.KindInt64},
		SortKinds:     []keyenc.Kind{keyenc.KindInt64},
		IncludedKinds: []keyenc.Kind{keyenc.KindInt64},
		HashBits:      8,
	}
}

// buildRun builds a run over n synthetic entries: device = i % devices,
// msg = i / devices, beginTS = ts(i), included = i.
func buildRun(t testing.TB, def Def, n, devices int, blockSize int) ([]byte, *Header) {
	t.Helper()
	b, err := NewBuilder(def, Meta{Zone: types.ZoneGroomed, Blocks: types.BlockRange{Min: 0, Max: uint64(n)}}, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		err := b.AddValues(
			[]keyenc.Value{keyenc.I64(int64(i % devices))},
			[]keyenc.Value{keyenc.I64(int64(i / devices))},
			[]keyenc.Value{keyenc.I64(int64(i))},
			types.TS(i+1), types.RID{Zone: types.ZoneGroomed, Block: 1, Offset: uint32(i)},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, h
}

func TestDefValidate(t *testing.T) {
	cases := []struct {
		name string
		def  Def
		ok   bool
	}{
		{"I1", defI1(), true},
		{"no key columns", Def{}, false},
		{"pure hash", Def{EqualityKinds: []keyenc.Kind{keyenc.KindInt64}, HashBits: 8}, true},
		{"pure range", Def{SortKinds: []keyenc.Kind{keyenc.KindInt64}}, true},
		{"offset array without equality", Def{SortKinds: []keyenc.Kind{keyenc.KindInt64}, HashBits: 8}, false},
		{"hash bits too large", Def{EqualityKinds: []keyenc.Kind{keyenc.KindInt64}, HashBits: 25}, false},
		{"invalid kind", Def{EqualityKinds: []keyenc.Kind{keyenc.KindInvalid}}, false},
	}
	for _, c := range cases {
		err := c.def.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestEntryOrdering(t *testing.T) {
	def := defI1()
	mk := func(dev, msg int64, ts types.TS) Entry {
		e, err := MakeEntry(def, []keyenc.Value{keyenc.I64(dev)}, []keyenc.Value{keyenc.I64(msg)}, []keyenc.Value{keyenc.I64(0)}, ts, types.RID{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := mk(1, 1, 100)
	b := mk(1, 2, 50)
	if !(Compare(a, b) < 0) {
		t.Error("sort column must order within one equality value")
	}
	// Same key: newer (larger) beginTS sorts FIRST (descending, §4.2).
	newer := mk(1, 1, 200)
	older := mk(1, 1, 100)
	if !(Compare(newer, older) < 0) {
		t.Error("newer version must sort before older version")
	}
	if Compare(a, a) != 0 {
		t.Error("identical entries must compare equal")
	}
	if !SameKey(newer, older) || SameKey(a, b) {
		t.Error("SameKey must ignore version and respect key")
	}
}

func TestMakeEntryValidation(t *testing.T) {
	def := defI1()
	if _, err := MakeEntry(def, nil, []keyenc.Value{keyenc.I64(0)}, []keyenc.Value{keyenc.I64(0)}, 0, types.RID{}); err == nil {
		t.Error("missing equality value accepted")
	}
	if _, err := MakeEntry(def, []keyenc.Value{keyenc.I64(0)}, nil, []keyenc.Value{keyenc.I64(0)}, 0, types.RID{}); err == nil {
		t.Error("missing sort value accepted")
	}
	if _, err := MakeEntry(def, []keyenc.Value{keyenc.I64(0)}, []keyenc.Value{keyenc.I64(0)}, nil, 0, types.RID{}); err == nil {
		t.Error("missing included value accepted")
	}
}

func TestBuildAndIterateAll(t *testing.T) {
	const n = 1000
	data, h := buildRun(t, defI1(), n, 10, 1024)
	r := NewReader(h, NewMemSource(data, h))
	if r.Entries() != n {
		t.Fatalf("Entries = %d, want %d", r.Entries(), n)
	}
	if len(h.BlockIndex) < 2 {
		t.Fatalf("expected multiple data blocks, got %d", len(h.BlockIndex))
	}
	it := r.Begin()
	defer it.Close()
	var prev Entry
	count := 0
	for ; it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		if count > 0 && Compare(prev, e) > 0 {
			t.Fatalf("entries out of order at ordinal %d", count)
		}
		prev = Entry{Hash: e.Hash, Key: append([]byte(nil), e.Key...), BeginTS: e.BeginTS}
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("iterated %d entries, want %d", count, n)
	}
}

func TestSeekGEFindsFirstMatch(t *testing.T) {
	const n, devices = 500, 7
	data, h := buildRun(t, defI1(), n, devices, 512)
	r := NewReader(h, NewMemSource(data, h))
	for dev := int64(0); dev < devices; dev++ {
		k, err := MakeSearchKey(h.Def, []keyenc.Value{keyenc.I64(dev)}, []keyenc.Value{keyenc.I64(3)})
		if err != nil {
			t.Fatal(err)
		}
		it, err := r.SeekGE(k)
		if err != nil {
			t.Fatal(err)
		}
		if !it.Valid() {
			t.Fatalf("device %d: seek found nothing", dev)
		}
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		if CompareToSearchKey(e, k) < 0 {
			t.Errorf("device %d: entry before search key", dev)
		}
		// The entry must be exactly (dev, 3): every device has msgs 0..n/devices.
		vals, _, err := keyenc.DecodeComposite(e.Key, h.Def.KeyKinds())
		if err != nil {
			t.Fatal(err)
		}
		if vals[0].Int() != dev || vals[1].Int() != 3 {
			t.Errorf("seek(dev=%d,msg=3) landed on (%v,%v)", dev, vals[0], vals[1])
		}
		it.Close()
	}
}

func TestSeekGEPastEnd(t *testing.T) {
	data, h := buildRun(t, defI1(), 100, 5, 512)
	r := NewReader(h, NewMemSource(data, h))
	// Seek beyond the largest msg of one device: must land on the next
	// hash group or exhaust, never on a smaller key.
	k, err := MakeSearchKey(h.Def, []keyenc.Value{keyenc.I64(2)}, []keyenc.Value{keyenc.I64(1 << 40)})
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.SeekGE(k)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Valid() {
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		if CompareToSearchKey(e, k) < 0 {
			t.Error("seek landed before the bound")
		}
	}
}

func TestSeekMatchesNaiveScan(t *testing.T) {
	// Property: for random search keys, SeekGE lands exactly where a
	// linear scan would (invariant 2 of DESIGN.md).
	rng := rand.New(rand.NewSource(42))
	const n, devices = 800, 13
	data, h := buildRun(t, defI1(), n, devices, 700)
	r := NewReader(h, NewMemSource(data, h))

	// Materialize all entries once via full iteration.
	var all []Entry
	for it := r.Begin(); it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Entry{Hash: e.Hash, Key: append([]byte(nil), e.Key...), BeginTS: e.BeginTS, RID: e.RID})
	}

	for trial := 0; trial < 200; trial++ {
		dev := rng.Int63n(devices + 2) // sometimes absent devices
		msg := rng.Int63n(n/devices + 4)
		k, err := MakeSearchKey(h.Def, []keyenc.Value{keyenc.I64(dev)}, []keyenc.Value{keyenc.I64(msg)})
		if err != nil {
			t.Fatal(err)
		}
		wantOrd := -1
		for i, e := range all {
			if CompareToSearchKey(e, k) >= 0 {
				wantOrd = i
				break
			}
		}
		it, err := r.SeekGE(k)
		if err != nil {
			t.Fatal(err)
		}
		if wantOrd == -1 {
			if it.Valid() {
				t.Fatalf("trial %d: scan exhausted but seek found ordinal %d", trial, it.Ordinal())
			}
		} else if !it.Valid() || it.Ordinal() != uint64(wantOrd) {
			t.Fatalf("trial %d: seek ordinal %d, scan says %d", trial, it.Ordinal(), wantOrd)
		}
		it.Close()
	}
}

func TestVersionsSortNewestFirst(t *testing.T) {
	def := defI1()
	b, err := NewBuilder(def, Meta{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three versions of key (1,1) added oldest-first.
	for _, ts := range []types.TS{10, 30, 20} {
		if err := b.AddValues([]keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(0)}, ts, types.RID{Offset: uint32(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(h, NewMemSource(data, h))
	var got []types.TS
	for it := r.Begin(); it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e.BeginTS)
	}
	want := []types.TS{30, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("version order = %v, want %v", got, want)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	_, h := buildRun(t, defI1(), 300, 9, 512)
	h.Meta.Level = 3
	h.Meta.PSN = 17
	h.Meta.Ancestors = []string{"idx/z1/L0/run-0-5", "idx/z1/L0/run-6-9"}
	enc := appendHeader(nil, h)
	got, err := ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries != h.Entries || got.BlockSize != h.BlockSize || got.DataEnd != h.DataEnd {
		t.Errorf("scalar fields lost: %+v vs %+v", got, h)
	}
	if got.Meta.Level != 3 || got.Meta.Blocks != h.Meta.Blocks || got.Meta.Zone != h.Meta.Zone || got.Meta.PSN != 17 {
		t.Errorf("meta lost: %+v", got.Meta)
	}
	if len(got.Meta.Ancestors) != 2 || got.Meta.Ancestors[0] != h.Meta.Ancestors[0] {
		t.Errorf("ancestors lost: %v", got.Meta.Ancestors)
	}
	if len(got.OffsetArray) != len(h.OffsetArray) {
		t.Fatalf("offset array length %d vs %d", len(got.OffsetArray), len(h.OffsetArray))
	}
	for i := range h.OffsetArray {
		if got.OffsetArray[i] != h.OffsetArray[i] {
			t.Fatalf("offset array diverges at %d", i)
		}
	}
	if len(got.BlockIndex) != len(h.BlockIndex) {
		t.Fatalf("block index length %d vs %d", len(got.BlockIndex), len(h.BlockIndex))
	}
	for i := range h.BlockIndex {
		a, b := got.BlockIndex[i], h.BlockIndex[i]
		if a.Off != b.Off || a.Len != b.Len || a.StartOrd != b.StartOrd || a.FirstHash != b.FirstHash || !bytes.Equal(a.FirstKey, b.FirstKey) {
			t.Fatalf("block index %d diverges", i)
		}
	}
	for i := range h.SynMin {
		if !bytes.Equal(got.SynMin[i], h.SynMin[i]) || !bytes.Equal(got.SynMax[i], h.SynMax[i]) {
			t.Fatalf("synopsis %d diverges", i)
		}
	}
}

func TestParseHeaderCorrupt(t *testing.T) {
	_, h := buildRun(t, defI1(), 50, 5, 512)
	enc := appendHeader(nil, h)
	if _, err := ParseHeader(enc[:10]); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte(nil), enc...)
	copy(bad, "XXXXXXXX")
	if _, err := ParseHeader(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestFooterRoundTrip(t *testing.T) {
	data, _ := buildRun(t, defI1(), 50, 5, 512)
	off, l, err := ParseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	if off == 0 || l == 0 {
		t.Errorf("footer = (%d, %d)", off, l)
	}
	if _, _, err := ParseFooter(data[:FooterSize-1]); err == nil {
		t.Error("short footer accepted")
	}
	bad := append([]byte(nil), data...)
	copy(bad[len(bad)-8:], "NOTMAGIC")
	if _, _, err := ParseFooter(bad); err == nil {
		t.Error("bad footer magic accepted")
	}
}

func TestOffsetArraySemantics(t *testing.T) {
	// The offset array must satisfy: array[b] = first ordinal whose hash
	// prefix >= b, and it must bracket every entry's bucket.
	data, h := buildRun(t, defI1(), 400, 11, 512)
	r := NewReader(h, NewMemSource(data, h))
	if h.OffsetArray == nil {
		t.Fatal("no offset array despite HashBits > 0")
	}
	ord := uint64(0)
	for it := r.Begin(); it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		b := keyenc.HashPrefix(e.Hash, h.Def.HashBits)
		if !(h.OffsetArray[b] <= ord && ord < h.OffsetArray[b+1]) {
			t.Fatalf("ordinal %d outside its bucket window [%d,%d)", ord, h.OffsetArray[b], h.OffsetArray[b+1])
		}
		ord++
	}
	// Monotone non-decreasing, ending at Entries.
	for i := 1; i < len(h.OffsetArray); i++ {
		if h.OffsetArray[i] < h.OffsetArray[i-1] {
			t.Fatal("offset array not monotone")
		}
	}
	if h.OffsetArray[len(h.OffsetArray)-1] != h.Entries {
		t.Fatal("offset array must end at entry count")
	}
}

func TestSynopsisBounds(t *testing.T) {
	data, h := buildRun(t, defI1(), 200, 10, 512)
	r := NewReader(h, NewMemSource(data, h))

	encI64 := func(v int64) []byte { return keyenc.Append(nil, keyenc.I64(v)) }
	// Equality column (device) spans 0..9; sort column (msg) spans 0..19.
	cases := []struct {
		name   string
		bounds []ColumnBound
		want   bool
	}{
		{"inside", []ColumnBound{{Lo: encI64(5), Hi: encI64(5)}}, true},
		{"below", []ColumnBound{{Lo: encI64(-10), Hi: encI64(-1)}}, false},
		{"above", []ColumnBound{{Lo: encI64(10), Hi: encI64(99)}}, false},
		{"overlap low edge", []ColumnBound{{Lo: encI64(-5), Hi: encI64(0)}}, true},
		{"unbounded", []ColumnBound{{}}, true},
		{"sort col above", []ColumnBound{{}, {Lo: encI64(20), Hi: nil}}, false},
		{"sort col inside", []ColumnBound{{}, {Lo: encI64(0), Hi: encI64(3)}}, true},
	}
	for _, c := range cases {
		if got := r.MayContain(c.bounds); got != c.want {
			t.Errorf("%s: MayContain = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSynopsisEmptyRun(t *testing.T) {
	b, err := NewBuilder(defI1(), Meta{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(h, NewMemSource(data, h))
	if r.MayContain([]ColumnBound{{}}) {
		t.Error("empty run must match nothing")
	}
	if r.Entries() != 0 || len(h.BlockIndex) != 0 {
		t.Error("empty run should have no blocks")
	}
}

func TestLoadFromObjectStore(t *testing.T) {
	store := NewMemObjectStore(t)
	data, h := buildRun(t, defI1(), 300, 6, 512)
	if err := store.Put("idx/z1/L0/run-0-300", data); err != nil {
		t.Fatal(err)
	}
	r, err := Open(store, "idx/z1/L0/run-0-300")
	if err != nil {
		t.Fatal(err)
	}
	if r.Entries() != 300 {
		t.Fatalf("Entries = %d", r.Entries())
	}
	// Compare a full iteration against the in-memory reader.
	mem := NewReader(h, NewMemSource(data, h))
	itS, itM := r.Begin(), mem.Begin()
	for itM.Valid() {
		if !itS.Valid() {
			t.Fatal("store-backed reader exhausted early")
		}
		a, err := itS.Entry()
		if err != nil {
			t.Fatal(err)
		}
		b, err := itM.Entry()
		if err != nil {
			t.Fatal(err)
		}
		if Compare(a, b) != 0 || a.RID != b.RID || !bytes.Equal(a.Included, b.Included) {
			t.Fatal("store-backed reader diverges from memory reader")
		}
		itS.Next()
		itM.Next()
	}
	if itS.Valid() {
		t.Fatal("store-backed reader has extra entries")
	}
}

// NewMemObjectStore is a small helper so run tests don't depend on the
// storage package's test helpers.
func NewMemObjectStore(t *testing.T) storage.ObjectStore {
	t.Helper()
	return storage.NewMemStore(storage.LatencyModel{})
}

func TestLoadHeaderErrors(t *testing.T) {
	store := NewMemObjectStore(t)
	if _, err := LoadHeader(store, "missing"); err == nil {
		t.Error("LoadHeader of missing object: want error")
	}
	if err := store.Put("tiny", []byte("xx")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHeader(store, "tiny"); err == nil {
		t.Error("LoadHeader of tiny object: want error")
	}
}

func TestIncludedColumnsRoundTrip(t *testing.T) {
	def := Def{
		EqualityKinds: []keyenc.Kind{keyenc.KindString},
		SortKinds:     []keyenc.Kind{keyenc.KindUint64},
		IncludedKinds: []keyenc.Kind{keyenc.KindFloat64, keyenc.KindString},
		HashBits:      4,
	}
	b, err := NewBuilder(def, Meta{Zone: types.ZoneGroomed}, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = b.AddValues(
		[]keyenc.Value{keyenc.Str("sensor-1")},
		[]keyenc.Value{keyenc.U64(7)},
		[]keyenc.Value{keyenc.F64(21.5), keyenc.Str("ok")},
		types.TS(1), types.RID{Zone: types.ZoneGroomed, Block: 2, Offset: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(h, NewMemSource(data, h))
	it := r.Begin()
	e, err := it.Entry()
	if err != nil {
		t.Fatal(err)
	}
	incl, _, err := keyenc.DecodeComposite(e.Included, def.IncludedKinds)
	if err != nil {
		t.Fatal(err)
	}
	if incl[0].Float() != 21.5 || string(incl[1].Bytes()) != "ok" {
		t.Errorf("included columns = %v", incl)
	}
	if e.RID != (types.RID{Zone: types.ZoneGroomed, Block: 2, Offset: 3}) {
		t.Errorf("RID = %v", e.RID)
	}
}

func TestOversizedEntryGetsOwnBlock(t *testing.T) {
	def := Def{
		EqualityKinds: []keyenc.Kind{keyenc.KindBytes},
		HashBits:      4,
	}
	b, err := NewBuilder(def, Meta{}, 64) // tiny target block
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{'x'}, 500)
	if err := b.AddValues([]keyenc.Value{keyenc.Raw(big)}, nil, nil, 1, types.RID{}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddValues([]keyenc.Value{keyenc.Raw([]byte("small"))}, nil, nil, 1, types.RID{}); err != nil {
		t.Fatal(err)
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(h, NewMemSource(data, h))
	count := 0
	for it := r.Begin(); it.Valid(); it.Next() {
		if _, err := it.Entry(); err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 2 {
		t.Fatalf("iterated %d entries, want 2", count)
	}
	if len(h.BlockIndex) != 2 {
		t.Fatalf("expected 2 blocks (oversize isolation), got %d", len(h.BlockIndex))
	}
}

func TestNoHashBitsPureRangeIndex(t *testing.T) {
	def := Def{SortKinds: []keyenc.Kind{keyenc.KindInt64}}
	b, err := NewBuilder(def, Meta{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.AddValues(nil, []keyenc.Value{keyenc.I64(int64(i))}, nil, types.TS(i+1), types.RID{Offset: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if h.OffsetArray != nil {
		t.Error("pure range index must have no offset array")
	}
	r := NewReader(h, NewMemSource(data, h))
	k, err := MakeSearchKey(def, nil, []keyenc.Value{keyenc.I64(42)})
	if err != nil {
		t.Fatal(err)
	}
	it, err := r.SeekGE(k)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	e, err := it.Entry()
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := keyenc.DecodeComposite(e.Key, def.KeyKinds())
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Int() != 42 {
		t.Errorf("seek(42) landed on %v", vals[0])
	}
}

func TestOpenBlockCorrupt(t *testing.T) {
	data, h := buildRun(t, defI1(), 40, 5, 0)
	r := NewReader(h, NewMemSource(data, h))
	raw, err := r.src.FetchBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.openBlock(0, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := r.openBlock(0, raw[:2]); err == nil {
		t.Error("short block accepted")
	}
	// The tail claims a different entry count than the header.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1]++
	if _, err := r.openBlock(0, bad); err == nil {
		t.Error("entry count mismatch accepted")
	}
}

func BenchmarkRunBuild100K(b *testing.B) {
	def := defI1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl, _ := NewBuilder(def, Meta{}, 0)
		for j := 0; j < 100_000; j++ {
			_ = bl.AddValues(
				[]keyenc.Value{keyenc.I64(int64(j % 1000))},
				[]keyenc.Value{keyenc.I64(int64(j / 1000))},
				[]keyenc.Value{keyenc.I64(int64(j))},
				types.TS(j+1), types.RID{Offset: uint32(j)},
			)
		}
		if _, _, err := bl.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSeek(b *testing.B) {
	data, h := buildRun(b, defI1(), 100_000, 1000, 0)
	r := NewReader(h, NewMemSource(data, h))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := MakeSearchKey(h.Def, []keyenc.Value{keyenc.I64(rng.Int63n(1000))}, []keyenc.Value{keyenc.I64(rng.Int63n(100))})
		if err != nil {
			b.Fatal(err)
		}
		it, err := r.SeekGE(k)
		if err != nil {
			b.Fatal(err)
		}
		if it.Valid() {
			if _, err := it.Entry(); err != nil {
				b.Fatal(err)
			}
		}
		it.Close()
	}
}

func TestMakeSearchKeyValidation(t *testing.T) {
	def := defI1()
	if _, err := MakeSearchKey(def, nil, nil); err == nil {
		t.Error("missing equality values accepted")
	}
	if _, err := MakeSearchKey(def, []keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1), keyenc.I64(2)}); err == nil {
		t.Error("too many sort bounds accepted")
	}
	// Prefix bound (no sort columns) is allowed.
	if _, err := MakeSearchKey(def, []keyenc.Value{keyenc.I64(1)}, nil); err != nil {
		t.Errorf("prefix search key rejected: %v", err)
	}
}

func TestHasPrefix(t *testing.T) {
	def := defI1()
	e, err := MakeEntry(def, []keyenc.Value{keyenc.I64(4)}, []keyenc.Value{keyenc.I64(9)}, []keyenc.Value{keyenc.I64(0)}, 1, types.RID{})
	if err != nil {
		t.Fatal(err)
	}
	group, err := MakeSearchKey(def, []keyenc.Value{keyenc.I64(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !HasPrefix(e, group) {
		t.Error("entry must match its equality-group prefix")
	}
	other, err := MakeSearchKey(def, []keyenc.Value{keyenc.I64(5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if HasPrefix(e, other) {
		t.Error("entry must not match a different equality group")
	}
}

func fmtEntries(es []Entry) string {
	var b bytes.Buffer
	for _, e := range es {
		fmt.Fprintf(&b, "(%x,%x,%d) ", e.Hash, e.Key, e.BeginTS)
	}
	return b.String()
}

var _ = fmtEntries // kept for debugging failed ordering tests
