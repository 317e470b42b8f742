package run

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// randDef builds a random index definition mixing column kinds.
func randDef(rng *rand.Rand) Def {
	kinds := []keyenc.Kind{keyenc.KindInt64, keyenc.KindUint64, keyenc.KindString, keyenc.KindFloat64}
	pick := func(n int) []keyenc.Kind {
		out := make([]keyenc.Kind, n)
		for i := range out {
			out[i] = kinds[rng.Intn(len(kinds))]
		}
		return out
	}
	d := Def{
		EqualityKinds: pick(1 + rng.Intn(2)),
		SortKinds:     pick(rng.Intn(2)),
		IncludedKinds: pick(rng.Intn(2)),
		HashBits:      uint8(4 + rng.Intn(6)),
	}
	return d
}

func randValue(rng *rand.Rand, k keyenc.Kind) keyenc.Value {
	switch k {
	case keyenc.KindInt64:
		return keyenc.I64(rng.Int63n(1000) - 500)
	case keyenc.KindUint64:
		return keyenc.U64(uint64(rng.Intn(1000)))
	case keyenc.KindFloat64:
		return keyenc.F64(float64(rng.Intn(100)) / 4)
	case keyenc.KindString:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256)) // includes 0x00 to stress escaping
		}
		return keyenc.Str(string(b))
	case keyenc.KindBool:
		return keyenc.B(rng.Intn(2) == 1)
	default:
		panic("unexpected kind")
	}
}

func randValues(rng *rand.Rand, kinds []keyenc.Kind) []keyenc.Value {
	out := make([]keyenc.Value, len(kinds))
	for i, k := range kinds {
		out[i] = randValue(rng, k)
	}
	return out
}

// checkRun builds a run from entries and checks it against a sorted-slice
// oracle: OpenObject accepts the object, full iteration yields exactly
// the sorted input — compared after the iterator is closed, since
// entries must outlive Next and Close — and SeekGE lands where the
// oracle says for every present key, for the probes given, and for
// bounds before the first and after the last entry. It returns the
// reader and the sorted entries.
func checkRun(t *testing.T, def Def, meta Meta, blockSize int, entries []Entry, probes []SearchKey) (*Reader, []Entry) {
	t.Helper()
	b, err := NewBuilder(def, meta, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]Entry, len(entries))
	for i, e := range entries {
		b.Add(e)
		ref[i] = cloneEntryForTest(e)
	}
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(ref, func(i, j int) bool { return Compare(ref[i], ref[j]) < 0 })
	r, err := OpenObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Entries() != uint64(len(ref)) {
		t.Fatalf("run holds %d entries, want %d", r.Entries(), len(ref))
	}

	var got []Entry
	it := r.Begin()
	for ; it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if len(got) != len(ref) {
		t.Fatalf("iterated %d of %d entries", len(got), len(ref))
	}
	for i := range ref {
		g, w := got[i], ref[i]
		if Compare(g, w) != 0 || g.RID != w.RID || !bytes.Equal(g.Included, w.Included) {
			t.Fatalf("entry %d = %+v, want %+v", i, g, w)
		}
	}

	probes = append(probes,
		SearchKey{}, // before everything
		SearchKey{Hash: ^uint64(0), Key: bytes.Repeat([]byte{0xff}, 40)}, // after everything
	)
	for _, e := range ref {
		probes = append(probes, SearchKey{Hash: e.Hash, Key: e.Key})
	}
	for _, k := range probes {
		want := sort.Search(len(ref), func(i int) bool { return CompareToSearchKey(ref[i], k) >= 0 })
		it, err := r.SeekGE(k)
		if err != nil {
			t.Fatal(err)
		}
		if it.Ordinal() != uint64(want) || it.Valid() != (want < len(ref)) {
			t.Fatalf("SeekGE(%x, %x): ordinal %d valid %v, oracle %d of %d", k.Hash, k.Key, it.Ordinal(), it.Valid(), want, len(ref))
		}
		if it.Valid() {
			if e, err := it.Entry(); err != nil || Compare(e, ref[want]) != 0 || e.RID != ref[want].RID {
				t.Fatalf("SeekGE(%x, %x) read %+v (%v), want %+v", k.Hash, k.Key, e, err, ref[want])
			}
		}
		it.Close()
	}
	return r, ref
}

// TestRandomRunsMatchNaive builds runs from random entries over random
// definitions (mixed column kinds, keys containing NUL bytes, duplicate
// keys with multiple versions, random block sizes) and checks them
// against the oracle of checkRun with random absent probes, plus: the
// synopsis never prunes a run that contains a matching entry.
func TestRandomRunsMatchNaive(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		def := randDef(rng)
		blockSize := 128 + rng.Intn(2048)
		n := 1 + rng.Intn(400)
		meta := Meta{Zone: types.ZoneGroomed, Blocks: types.BlockRange{Min: 3, Max: 9}}

		var entries []Entry
		for i := 0; i < n; i++ {
			ts := types.TS(1 + rng.Intn(50)) // duplicates versions on purpose
			rid := types.RID{Zone: types.ZoneGroomed, Block: uint64(rng.Intn(12)), Offset: uint32(i)}
			e, err := MakeEntry(def, randValues(rng, def.EqualityKinds), randValues(rng, def.SortKinds), randValues(rng, def.IncludedKinds), ts, rid)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
		}
		var probes []SearchKey
		for probe := 0; probe < 30; probe++ {
			var sortBound []keyenc.Value
			if len(def.SortKinds) > 0 && rng.Intn(2) == 0 {
				sortBound = randValues(rng, def.SortKinds[:1])
			}
			k, err := MakeSearchKey(def, randValues(rng, def.EqualityKinds), sortBound)
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, k)
		}
		r, ref := checkRun(t, def, meta, blockSize, entries, probes)

		// The synopsis admits every present key.
		for probe := 0; probe < 20; probe++ {
			e := ref[rng.Intn(len(ref))]
			var bounds []ColumnBound
			_ = columnSegments(e.Key, def.KeyKinds(), func(col int, seg []byte) {
				bounds = append(bounds, ColumnBound{Lo: seg, Hi: seg})
			})
			if !HeaderMayContain(r.Header(), bounds) {
				t.Fatalf("trial %d: synopsis rejected a present key", trial)
			}
		}
	}
}

// TestRunShapes covers the shapes the restart-point layout has edges on:
// entry counts around the restart interval, one oversized entry, keys
// that share everything (one key, many versions) and keys that share
// nothing, with and without included columns and offset array.
func TestRunShapes(t *testing.T) {
	strDef := Def{EqualityKinds: []keyenc.Kind{keyenc.KindString}, SortKinds: []keyenc.Kind{keyenc.KindInt64}, HashBits: 5}
	meta := Meta{Zone: types.ZonePostGroomed, Blocks: types.BlockRange{Min: 100, Max: 120}}
	entry := func(def Def, eq string, msg int64, incl []keyenc.Value, ts types.TS, block uint64) Entry {
		e, err := MakeEntry(def, []keyenc.Value{keyenc.Str(eq)}, []keyenc.Value{keyenc.I64(msg)}, incl, ts,
			types.RID{Zone: types.ZonePostGroomed, Block: block, Offset: uint32(msg)})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	absent := func(def Def) []SearchKey {
		k, err := MakeSearchKey(def, []keyenc.Value{keyenc.Str("absent")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return []SearchKey{k}
	}

	for _, n := range []int{0, 1, restartInterval - 1, restartInterval, restartInterval + 1, 3*restartInterval + 2} {
		var entries []Entry
		for i := 0; i < n; i++ {
			// Post-groomed block IDs below Meta.Blocks.Min are normal.
			entries = append(entries, entry(strDef, "dev", int64(i), nil, types.MakeTS(uint64(i%3+1), uint32(i)), uint64(i)))
		}
		checkRun(t, strDef, meta, 0, entries, absent(strDef))
		checkRun(t, strDef, meta, 96, entries, absent(strDef)) // and split across blocks
	}

	inclDef := strDef
	inclDef.IncludedKinds = []keyenc.Kind{keyenc.KindString}
	inclDef.HashBits = 0
	huge := string(bytes.Repeat([]byte{'k', 0x00}, 35000))
	checkRun(t, inclDef, meta, 0, []Entry{
		entry(inclDef, huge, 1, []keyenc.Value{keyenc.Str(huge)}, 5, 7),
	}, absent(inclDef))
	checkRun(t, inclDef, meta, 64, []Entry{
		entry(inclDef, "a", 1, []keyenc.Value{keyenc.Str("")}, 5, 7),
		entry(inclDef, huge, 1, []keyenc.Value{keyenc.Str(huge)}, 5, 7),
		entry(inclDef, "z", 1, []keyenc.Value{keyenc.Str("x")}, 5, 7),
	}, absent(inclDef))

	var versions, disjoint []Entry
	for i := 0; i < 40; i++ {
		versions = append(versions, entry(strDef, "same", 7, nil, types.TS(i+1), uint64(100+i)))
		disjoint = append(disjoint, entry(strDef, string(rune('A'+i))+"-device", int64(i)<<40, nil, types.TS(i+1)<<30, 100))
	}
	checkRun(t, strDef, meta, 0, versions, absent(strDef))
	checkRun(t, strDef, meta, 128, disjoint, absent(strDef))
}

// TestHeaderStaysSmall guards the sparse offset-array encoding: a small
// run must not pay for its 2^HashBits empty buckets.
func TestHeaderStaysSmall(t *testing.T) {
	def := defI1()
	def.HashBits = 10
	data, h := buildRun(t, def, 100, 7, 0)
	if len(h.OffsetArray) != 1<<10+1 {
		t.Fatalf("offset array has %d slots", len(h.OffsetArray))
	}
	if len(data) >= 6<<10 {
		t.Errorf("100-entry run with HashBits 10 serializes to %d bytes, want < 6 KiB", len(data))
	}
}

// TestOldFormatRejected: an object carrying the previous format's magic
// is refused, never decoded.
func TestOldFormatRejected(t *testing.T) {
	data, _ := buildRun(t, defI1(), 50, 5, 0)
	old := append([]byte(nil), data...)
	copy(old[len(old)-8:], "UMZIRUN1")
	if _, err := OpenObject(old); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("UMZIRUN1 object: err = %v, want a magic error", err)
	}
	if _, _, err := ParseFooter(old); err == nil {
		t.Error("UMZIRUN1 footer accepted")
	}
}

func cloneEntryForTest(e Entry) Entry {
	out := e
	out.Key = append([]byte(nil), e.Key...)
	out.Included = append([]byte(nil), e.Included...)
	return out
}

// TestIterLongScan walks a run of many small blocks end to end.
func TestIterLongScan(t *testing.T) {
	def := defI1()
	b, err := NewBuilder(def, Meta{}, 256) // tiny blocks: many of them
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := b.AddValues(
			[]keyenc.Value{keyenc.I64(int64(i % 5))},
			[]keyenc.Value{keyenc.I64(int64(i / 5))},
			[]keyenc.Value{keyenc.I64(int64(i))},
			types.TS(i+1), types.RID{Offset: uint32(i)},
		); err != nil {
			t.Fatal(err)
		}
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.BlockIndex) < 50 {
		t.Fatalf("test needs many blocks, got %d", len(h.BlockIndex))
	}
	r := NewReader(h, NewMemSource(data, h))
	count := 0
	it := r.Begin()
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if _, err := it.Entry(); err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != n {
		t.Fatalf("iterated %d of %d", count, n)
	}
}

// TestPinCounting uses a pin-tracking source to prove the iterator
// releases exactly what it fetched, block by block.
func TestPinCounting(t *testing.T) {
	def := defI1()
	b, _ := NewBuilder(def, Meta{}, 256)
	for i := 0; i < 4000; i++ {
		_ = b.AddValues(
			[]keyenc.Value{keyenc.I64(int64(i % 3))},
			[]keyenc.Value{keyenc.I64(int64(i / 3))},
			[]keyenc.Value{keyenc.I64(int64(i))},
			types.TS(i+1), types.RID{Offset: uint32(i)},
		)
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	src := &pinTrackingSource{inner: NewMemSource(data, h), pins: map[uint32]int{}}
	r := NewReader(h, src)
	it := r.Begin()
	for ; it.Valid(); it.Next() {
		if _, err := it.Entry(); err != nil {
			t.Fatal(err)
		}
	}
	it.Close()
	for idx, pins := range src.pins {
		if pins != 0 {
			t.Errorf("block %d left with %d outstanding pins", idx, pins)
		}
	}
}

type pinTrackingSource struct {
	inner BlockSource
	pins  map[uint32]int
}

func (s *pinTrackingSource) FetchBlock(i uint32) ([]byte, error) {
	data, err := s.inner.FetchBlock(i)
	if err == nil {
		s.pins[i]++
	}
	return data, err
}

func (s *pinTrackingSource) Release(i uint32) { s.pins[i]-- }

// tieHeavyEntries returns n entries drawn from at most 4 hashes (one of
// them 0), 3 keys and 3 beginTS values, so most entries tie under
// Compare; RIDs and included bytes are distinct, so any reordering of
// ties changes the run's bytes.
func tieHeavyEntries(t testing.TB, rng *rand.Rand, def Def, n int) []Entry {
	hashes := []uint64{0, rng.Uint64(), rng.Uint64(), rng.Uint64()}
	entries := make([]Entry, n)
	for i := range entries {
		e, err := MakeEntry(def,
			[]keyenc.Value{keyenc.I64(int64(rng.Intn(3)))}, nil,
			[]keyenc.Value{keyenc.I64(int64(i))},
			types.TS(1+rng.Intn(3)),
			types.RID{Zone: types.ZoneGroomed, Block: uint64(i % 7), Offset: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		e.Hash = hashes[rng.Intn(len(hashes))]
		entries[i] = e
	}
	return entries
}

// finishEntries builds a run over entries and returns its bytes and header.
func finishEntries(t testing.TB, def Def, meta Meta, entries []Entry) ([]byte, *Header) {
	t.Helper()
	b, err := NewBuilder(def, meta, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b.Add(e)
	}
	data, h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, h
}

// TestFinishMatchesStableOrder: Finish orders ties by insertion, exactly
// as a stable sort does, so a run's bytes depend only on the order its
// entries were added in. The oracle is Finish over a copy already sorted
// with sort.SliceStable, which takes the no-sort path.
func TestFinishMatchesStableOrder(t *testing.T) {
	def := Def{
		EqualityKinds: []keyenc.Kind{keyenc.KindInt64},
		IncludedKinds: []keyenc.Kind{keyenc.KindInt64},
		HashBits:      4,
	}
	meta := Meta{Zone: types.ZoneGroomed, Blocks: types.BlockRange{Min: 0, Max: 7}}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 17, 1000, 5000} {
		shuffled := tieHeavyEntries(t, rng, def, n)
		sorted := slices.Clone(shuffled)
		sort.SliceStable(sorted, func(i, j int) bool { return Compare(sorted[i], sorted[j]) < 0 })
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, tc := range []struct {
			name  string
			input []Entry
		}{{"shuffled", shuffled}, {"sorted", sorted}, {"reversed", reversed}} {
			want := slices.Clone(tc.input)
			sort.SliceStable(want, func(i, j int) bool { return Compare(want[i], want[j]) < 0 })
			wantData, wantHdr := finishEntries(t, def, meta, want)
			gotData, gotHdr := finishEntries(t, def, meta, slices.Clone(tc.input))
			if !bytes.Equal(gotData, wantData) {
				t.Fatalf("n=%d %s: run bytes differ from the stable-sorted build", n, tc.name)
			}
			if !reflect.DeepEqual(gotHdr, wantHdr) {
				t.Fatalf("n=%d %s: header differs from the stable-sorted build", n, tc.name)
			}
		}
	}
}

// TestFinishSortAllocs: sorting costs Finish at most one allocation (the
// permutation), so no per-entry allocation creeps onto the sort path.
func TestFinishSortAllocs(t *testing.T) {
	def := Def{
		EqualityKinds: []keyenc.Kind{keyenc.KindInt64},
		IncludedKinds: []keyenc.Kind{keyenc.KindInt64},
		HashBits:      8,
	}
	meta := Meta{Zone: types.ZoneGroomed, Blocks: types.BlockRange{Min: 0, Max: 7}}
	shuffled := tieHeavyEntries(t, rand.New(rand.NewSource(1)), def, 10_000)
	sorted := slices.Clone(shuffled)
	slices.SortStableFunc(sorted, Compare)
	finishAllocs := func(entries []Entry) float64 {
		return testing.AllocsPerRun(5, func() {
			b, err := NewBuilder(def, meta, 0)
			if err != nil {
				t.Fatal(err)
			}
			b.entries = slices.Clone(entries)
			if _, _, err := b.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, base := finishAllocs(shuffled), finishAllocs(sorted)
	if got > base+1 {
		t.Fatalf("Finish on shuffled entries: %.0f allocs, %.0f on sorted; want at most one more", got, base)
	}
}
