package columnar

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"umzi/internal/keyenc"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"device", keyenc.KindInt64},
		Column{"msg", keyenc.KindUint64},
		Column{"temp", keyenc.KindFloat64},
		Column{"tag", keyenc.KindString},
		Column{"payload", keyenc.KindBytes},
		Column{"ok", keyenc.KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleRows() [][]keyenc.Value {
	return [][]keyenc.Value{
		{keyenc.I64(4), keyenc.U64(1), keyenc.F64(20.5), keyenc.Str("a"), keyenc.Raw([]byte{1, 0, 2}), keyenc.B(true)},
		{keyenc.I64(-9), keyenc.U64(2), keyenc.F64(-3.25), keyenc.Str("zz"), keyenc.Raw(nil), keyenc.B(false)},
		{keyenc.I64(100), keyenc.U64(0), keyenc.F64(0), keyenc.Str(""), keyenc.Raw([]byte{0xFF}), keyenc.B(true)},
	}
}

func buildSample(t *testing.T) *Block {
	t.Helper()
	b := NewBuilder(testSchema(t))
	for _, row := range sampleRows() {
		if err := b.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Column{"", keyenc.KindInt64}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema(Column{"a", keyenc.KindInt64}, Column{"a", keyenc.KindUint64}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema(Column{"a", keyenc.KindInvalid}); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.NumCols() != 6 {
		t.Fatalf("NumCols = %d", s.NumCols())
	}
	i, ok := s.ColIndex("temp")
	if !ok || i != 2 {
		t.Errorf("ColIndex(temp) = %d, %v", i, ok)
	}
	if _, ok := s.ColIndex("nope"); ok {
		t.Error("ColIndex of missing column reported ok")
	}
	if s.Col(3).Name != "tag" {
		t.Errorf("Col(3) = %+v", s.Col(3))
	}
}

func TestSchemaEqual(t *testing.T) {
	a := MustSchema(Column{"x", keyenc.KindInt64})
	b := MustSchema(Column{"x", keyenc.KindInt64})
	c := MustSchema(Column{"x", keyenc.KindUint64})
	d := MustSchema(Column{"x", keyenc.KindInt64}, Column{"y", keyenc.KindBool})
	if !a.Equal(b) {
		t.Error("identical schemas not equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different schemas compare equal")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema()
}

func TestBuilderAppendAndValues(t *testing.T) {
	blk := buildSample(t)
	rows := sampleRows()
	if blk.NumRows() != len(rows) {
		t.Fatalf("NumRows = %d", blk.NumRows())
	}
	for r, row := range rows {
		for c, want := range row {
			got := blk.Value(r, c)
			if keyenc.Compare(got, want) != 0 {
				t.Errorf("Value(%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestBuilderRowWidthMismatch(t *testing.T) {
	b := NewBuilder(testSchema(t))
	if err := b.Append([]keyenc.Value{keyenc.I64(1)}); err == nil {
		t.Error("short row accepted")
	}
}

func TestBuilderKindMismatch(t *testing.T) {
	b := NewBuilder(MustSchema(Column{"a", keyenc.KindInt64}))
	if err := b.Append([]keyenc.Value{keyenc.U64(1)}); err == nil {
		t.Error("kind mismatch accepted")
	}
	// A failed Append must not half-write the row.
	if b.NumRows() != 0 {
		t.Error("failed Append mutated builder")
	}
}

func TestBuilderStrRawInterchange(t *testing.T) {
	b := NewBuilder(MustSchema(Column{"s", keyenc.KindString}, Column{"b", keyenc.KindBytes}))
	err := b.Append([]keyenc.Value{keyenc.Raw([]byte("x")), keyenc.Str("y")})
	if err != nil {
		t.Fatalf("Str/Raw interchange rejected: %v", err)
	}
}

func TestBlockRow(t *testing.T) {
	blk := buildSample(t)
	row := blk.Row(1, nil)
	want := sampleRows()[1]
	if len(row) != len(want) {
		t.Fatalf("Row len = %d", len(row))
	}
	for i := range row {
		if keyenc.Compare(row[i], want[i]) != 0 {
			t.Errorf("Row[%d] = %v, want %v", i, row[i], want[i])
		}
	}
}

func TestColumnMinMax(t *testing.T) {
	blk := buildSample(t)
	min, ok := blk.ColumnMin(0)
	if !ok || min.Int() != -9 {
		t.Errorf("min(device) = %v, %v", min, ok)
	}
	max, ok := blk.ColumnMax(0)
	if !ok || max.Int() != 100 {
		t.Errorf("max(device) = %v, %v", max, ok)
	}
	minS, _ := blk.ColumnMin(3)
	maxS, _ := blk.ColumnMax(3)
	if string(minS.Bytes()) != "" || string(maxS.Bytes()) != "zz" {
		t.Errorf("string min/max = %v/%v", minS, maxS)
	}
}

func TestColumnMinMaxEmptyBlock(t *testing.T) {
	blk := NewBuilder(testSchema(t)).Build()
	if _, ok := blk.ColumnMin(0); ok {
		t.Error("empty block reported a min")
	}
	if _, ok := blk.ColumnMax(0); ok {
		t.Error("empty block reported a max")
	}
}

func TestMinMaxNoAliasing(t *testing.T) {
	b := NewBuilder(MustSchema(Column{"p", keyenc.KindBytes}))
	buf := []byte("zzz")
	if err := b.Append([]keyenc.Value{keyenc.Raw(buf)}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'a' // caller reuses its buffer
	if err := b.Append([]keyenc.Value{keyenc.Raw([]byte("mmm"))}); err != nil {
		t.Fatal(err)
	}
	blk := b.Build()
	max, _ := blk.ColumnMax(0)
	if string(max.Bytes()) != "zzz" {
		t.Errorf("max corrupted by caller buffer reuse: %q", max.Bytes())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	blk := buildSample(t)
	data := blk.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(blk.Schema()) {
		t.Fatal("schema lost in round trip")
	}
	if got.NumRows() != blk.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), blk.NumRows())
	}
	for r := 0; r < blk.NumRows(); r++ {
		for c := 0; c < blk.Schema().NumCols(); c++ {
			if keyenc.Compare(got.Value(r, c), blk.Value(r, c)) != 0 {
				t.Errorf("(%d,%d): %v != %v", r, c, got.Value(r, c), blk.Value(r, c))
			}
		}
	}
	for c := 0; c < blk.Schema().NumCols(); c++ {
		m1, _ := blk.ColumnMin(c)
		m2, _ := got.ColumnMin(c)
		if keyenc.Compare(m1, m2) != 0 {
			t.Errorf("min[%d] lost: %v != %v", c, m1, m2)
		}
	}
}

func TestMarshalEmptyBlock(t *testing.T) {
	blk := NewBuilder(testSchema(t)).Build()
	got, err := Unmarshal(blk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	blk := buildSample(t)
	data := blk.Marshal()
	// Column 0 ("device", int64) starts at byte 14; its min/max flag is
	// at 23, its u32 min length at 24 and its 8-byte min at 28.
	const flagAt = 14 + 1 + 2 + len("device")
	if data[flagAt] != 1 || binary.BigEndian.Uint32(data[flagAt+1:]) != 8 {
		t.Fatal("setup: column 0's min/max is not where the test expects it")
	}
	setFlag := func(src []byte, has byte) []byte {
		b := bytes.Clone(src)
		b[flagAt] = has
		return b
	}
	trailing := binary.BigEndian.AppendUint32(bytes.Clone(data[:flagAt+1]), 9)
	trailing = append(append(append(trailing, data[flagAt+5:flagAt+13]...), 0), data[flagAt+13:]...)
	cases := map[string][]byte{
		"empty":                 {},
		"bad magic":             append([]byte("XXXXXXXX"), data[8:]...),
		"truncated":             data[:len(data)/2],
		"header only":           data[:14],
		"rows without min/max":  setFlag(data, 0),
		"min/max without rows":  setFlag(NewBuilder(testSchema(t)).Build().Marshal(), 1),
		"trailing bytes in min": trailing,
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: Unmarshal accepted corrupt input", name)
		}
	}
}

func TestUnmarshalQuickNoPanic(t *testing.T) {
	// Unmarshal must return errors, never panic, on arbitrary input.
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %x: %v", data, r)
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	blk := buildSample(t)
	if !bytes.Equal(blk.Marshal(), blk.Marshal()) {
		t.Error("Marshal must be deterministic")
	}
}

func BenchmarkBlockBuild(b *testing.B) {
	schema := MustSchema(Column{"k", keyenc.KindInt64}, Column{"v", keyenc.KindBytes})
	payload := []byte("0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(schema)
		for j := 0; j < 1000; j++ {
			_ = bld.Append([]keyenc.Value{keyenc.I64(int64(j)), keyenc.Raw(payload)})
		}
		bld.Build()
	}
}

// BenchmarkBuilderAppend measures the steady-state per-row cost of
// Append, including the arena-backed min/max synopsis clones. The
// allocation count per op is the headline number: before the arena,
// every appended value could clone min and max individually.
func BenchmarkBuilderAppend(b *testing.B) {
	schema := MustSchema(
		Column{"k", keyenc.KindInt64},
		Column{"tag", keyenc.KindString},
		Column{"v", keyenc.KindBytes},
	)
	payload := []byte("0123456789abcdef")
	rows := make([][]keyenc.Value, 64)
	for j := range rows {
		rows[j] = []keyenc.Value{
			keyenc.I64(int64(j * 37 % 101)),
			keyenc.Str("tag-" + string(rune('a'+j%7))),
			keyenc.Raw(payload),
		}
	}
	b.ReportAllocs()
	var bld *Builder
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			bld = NewBuilder(schema)
		}
		_ = bld.Append(rows[i%len(rows)])
	}
}

func BenchmarkBlockMarshal(b *testing.B) {
	schema := MustSchema(Column{"k", keyenc.KindInt64}, Column{"v", keyenc.KindBytes})
	bld := NewBuilder(schema)
	for j := 0; j < 1000; j++ {
		_ = bld.Append([]keyenc.Value{keyenc.I64(int64(j)), keyenc.Raw([]byte("0123456789abcdef"))})
	}
	blk := bld.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.Marshal()
	}
}
