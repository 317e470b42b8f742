package umzi

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"umzi/internal/front"
	"umzi/internal/keyenc"
)

// oneRow is a RowSource positioned on one row.
type oneRow []Value

func (r oneRow) Next() bool     { return false }
func (r oneRow) Value() []Value { return r }
func (oneRow) Err() error       { return nil }
func (oneRow) Close() error     { return nil }

// scanValue scans one value through Rows.Scan, the public path into the
// destination/kind conversions.
func scanValue(v Value, dest any) error {
	return front.NewRows(context.Background(), []string{"v"}, oneRow{v}).Scan(dest)
}

// Scan destination/kind matrix for Rows.Scan: every supported pairing,
// the numeric narrowing overflow errors (ErrRange), and the rejection
// paths for mismatched kinds and unsupported destination types.
func TestScanValueMatrix(t *testing.T) {
	t.Run("int64-dest", func(t *testing.T) {
		var d int64
		if err := scanValue(I64(-42), &d); err != nil || d != -42 {
			t.Fatalf("int64<-int64: d=%d err=%v", d, err)
		}
		if err := scanValue(U64(7), &d); err != nil || d != 7 {
			t.Fatalf("int64<-uint64 small: d=%d err=%v", d, err)
		}
		err := scanValue(U64(math.MaxInt64+1), &d)
		if !errors.Is(err, ErrRange) {
			t.Fatalf("int64<-uint64 overflow: err=%v, want ErrRange", err)
		}
		if err := scanValue(F64(1.5), &d); err == nil || errors.Is(err, ErrRange) {
			t.Fatalf("int64<-float64: err=%v, want a non-range kind error", err)
		}
	})
	t.Run("int-dest", func(t *testing.T) {
		var d int
		if err := scanValue(I64(99), &d); err != nil || d != 99 {
			t.Fatalf("int<-int64: d=%d err=%v", d, err)
		}
		if err := scanValue(U64(12), &d); err != nil || d != 12 {
			t.Fatalf("int<-uint64 small: d=%d err=%v", d, err)
		}
		if err := scanValue(U64(math.MaxUint64), &d); !errors.Is(err, ErrRange) {
			t.Fatalf("int<-uint64 overflow: err=%v, want ErrRange", err)
		}
		if math.MaxInt == math.MaxInt32 {
			// 32-bit platforms: int64 values past 31 bits must not wrap.
			if err := scanValue(I64(math.MaxInt32+1), &d); !errors.Is(err, ErrRange) {
				t.Fatalf("int<-int64 overflow on 32-bit: err=%v, want ErrRange", err)
			}
		}
	})
	t.Run("uint64-dest", func(t *testing.T) {
		var d uint64
		if err := scanValue(U64(math.MaxUint64), &d); err != nil || d != math.MaxUint64 {
			t.Fatalf("uint64<-uint64: d=%d err=%v", d, err)
		}
		if err := scanValue(I64(1), &d); err == nil {
			t.Fatal("uint64<-int64 should be rejected (negative values cannot round-trip)")
		}
	})
	t.Run("float64-dest", func(t *testing.T) {
		var d float64
		for _, v := range []Value{F64(2.5), I64(3), U64(4)} {
			if err := scanValue(v, &d); err != nil {
				t.Fatalf("float64<-%v: %v", v.Kind(), err)
			}
		}
		if d != 4 {
			t.Fatalf("float64<-uint64 = %v, want 4", d)
		}
		if err := scanValue(Str("x"), &d); err == nil {
			t.Fatal("float64<-string should be rejected")
		}
	})
	t.Run("string-and-bytes-dest", func(t *testing.T) {
		var s string
		var b []byte
		if err := scanValue(Str("hi"), &s); err != nil || s != "hi" {
			t.Fatalf("string<-string: %q %v", s, err)
		}
		if err := scanValue(Raw([]byte("raw")), &s); err != nil || s != "raw" {
			t.Fatalf("string<-bytes: %q %v", s, err)
		}
		if err := scanValue(Str("bs"), &b); err != nil || string(b) != "bs" {
			t.Fatalf("bytes<-string: %q %v", b, err)
		}
		if err := scanValue(I64(1), &s); err == nil {
			t.Fatal("string<-int64 should be rejected")
		}
	})
	t.Run("bool-dest", func(t *testing.T) {
		var d bool
		if err := scanValue(Bool(true), &d); err != nil || !d {
			t.Fatalf("bool<-bool: %v %v", d, err)
		}
		if err := scanValue(I64(1), &d); err == nil {
			t.Fatal("bool<-int64 should be rejected")
		}
	})
	t.Run("value-dest", func(t *testing.T) {
		var d Value
		if err := scanValue(U64(9), &d); err != nil || d.Kind() != keyenc.KindUint64 || d.Uint() != 9 {
			t.Fatalf("Value<-uint64: %v %v", d, err)
		}
	})
	t.Run("unsupported-dest", func(t *testing.T) {
		var d int32
		err := scanValue(I64(1), &d)
		if err == nil || !strings.Contains(err.Error(), "unsupported destination") {
			t.Fatalf("int32 dest: err=%v, want unsupported-destination error", err)
		}
	})
}

func rowsFixture(t *testing.T) *Table {
	t.Helper()
	db, err := OpenDB(DBConfig{Store: NewMemStore(LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable(TableDef{
		Name: "t",
		Columns: []TableColumn{
			{Name: "id", Kind: KindInt64},
			{Name: "seq", Kind: KindInt64},
			{Name: "big", Kind: KindUint64},
			{Name: "amt", Kind: KindFloat64},
		},
		PrimaryKey: []string{"id", "seq"},
		ShardKey:   []string{"id"},
	}, TableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// End-to-end Scan through a streaming result, including the overflow
// error surfacing with the column name attached.
func TestRowsScan(t *testing.T) {
	ctx := context.Background()
	tbl := rowsFixture(t)
	if err := tbl.Upsert(ctx,
		Row{I64(1), I64(0), U64(5), F64(1.5)},
		Row{I64(2), I64(0), U64(math.MaxUint64), F64(2.5)},
	); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}

	rows, err := tbl.Query().At(MaxTS).IncludeLive().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var sum float64
	for rows.Next() {
		var id, seq int64
		var big int64
		var amt float64
		err := rows.Scan(&id, &seq, &big, &amt)
		switch id2 := rows.Values()[0].Int(); id2 {
		case 1:
			if err != nil || big != 5 {
				t.Fatalf("row 1: big=%d err=%v", big, err)
			}
		default:
			// Row 2 carries MaxUint64: narrowing into *int64 must fail
			// with ErrRange and name the column.
			if !errors.Is(err, ErrRange) || !strings.Contains(err.Error(), `"big"`) {
				t.Fatalf("row 2: err=%v, want ErrRange mentioning column big", err)
			}
			var u uint64
			if err := rows.Scan(&id, &seq, &u, &amt); err != nil || u != math.MaxUint64 {
				t.Fatalf("row 2 via *uint64: u=%d err=%v", u, err)
			}
		}
		sum += amt
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if sum != 4 {
		t.Fatalf("amt sum = %v, want 4", sum)
	}
	if err := rows.Scan(new(int64)); err == nil {
		t.Fatal("Scan with wrong arity after exhaustion should error")
	}
}

// After Next returns false the stream has fully released: Values goes
// stale (nil), Err stays nil on clean exhaustion, and Close — first and
// repeated — is a no-op that must not re-release the query.
func TestRowsExhaustionThenClose(t *testing.T) {
	ctx := context.Background()
	tbl := rowsFixture(t)
	if err := tbl.Upsert(ctx, Row{I64(1), I64(0), U64(1), F64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}

	// Exhaustion path: index-served (OrderBy) and executor-served plans
	// release through different teardown code; check both.
	for name, run := range map[string]func() (*Rows, error){
		"executor": func() (*Rows, error) {
			return tbl.Query().At(MaxTS).IncludeLive().Run(ctx)
		},
		"index": func() (*Rows, error) {
			return tbl.Query().Where(Eq("id", I64(1))).OrderBy("seq").Run(ctx)
		},
	} {
		rows, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if n != 1 {
			t.Fatalf("%s: drained %d rows, want 1", name, n)
		}
		if got := rows.Values(); got != nil {
			t.Fatalf("%s: Values after exhaustion = %v, want nil", name, got)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: Err after clean exhaustion = %v", name, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: Close after exhaustion = %v", name, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: second Close = %v", name, err)
		}
	}

	// Early-close path: Close before exhaustion, then again.
	rows, err := tbl.Query().At(MaxTS).IncludeLive().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next after Close should report exhaustion")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}
