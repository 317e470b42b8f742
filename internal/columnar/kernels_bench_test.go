package columnar

import (
	"fmt"
	"math/rand"
	"testing"

	"umzi/internal/keyenc"
)

// kernelBlock builds a 4,096-row block whose columns land on every
// encoding: a narrow bit-packed key, a wide bit-packed timestamp, plain
// floats, a dict-encoded tag, plain payload bytes and run-length
// encoded end stamps.
func kernelBlock(tb testing.TB) *Block {
	schema := MustSchema(
		Column{"key", keyenc.KindInt64},
		Column{"ts", keyenc.KindUint64},
		Column{"temp", keyenc.KindFloat64},
		Column{"tag", keyenc.KindString},
		Column{"payload", keyenc.KindBytes},
		Column{"end", keyenc.KindUint64},
	)
	rng := rand.New(rand.NewSource(71))
	b := NewBuilder(schema)
	payload := make([]byte, 24)
	for r := 0; r < 4096; r++ {
		rng.Read(payload)
		row := []keyenc.Value{
			keyenc.I64(int64(r*3 + rng.Intn(3))),
			keyenc.U64(1<<40 + uint64(rng.Int63n(1<<33))),
			keyenc.F64(rng.NormFloat64()),
			keyenc.Str(fmt.Sprintf("tag-%02d", rng.Intn(40))),
			keyenc.Raw(payload),
			keyenc.U64(1<<50 + uint64(r/1000)),
		}
		if err := b.Append(row); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Build()
}

// selections are the selection words the per-word kernels are timed
// on: every row, every row but one in eight, every other row, and one
// row in eight.
var selections = []struct {
	name string
	word uint64
}{
	{"dense", ^uint64(0)},
	{"holes", ^uint64(0x8040201008040201)},
	{"half", 0xaaaaaaaaaaaaaaaa},
	{"sparse", 0x8040201008040201},
}

// BenchmarkKernels times the block read kernels the executor and the
// reconciliation pass run, per column, over a 4,096-row block fetched
// from its stored bytes.
func BenchmarkKernels(b *testing.B) {
	built := kernelBlock(b)
	data := built.Marshal()
	blk, err := Unmarshal(data)
	if err != nil {
		b.Fatal(err)
	}
	rows := blk.NumRows()
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	out := make([]uint64, (rows+63)/64)
	var buf [64]uint64
	var nums []uint64
	for c := 0; c < blk.Schema().NumCols(); c++ {
		col := blk.Schema().Col(c)
		label := fmt.Sprintf("%s-%v", col.Name, blk.ColumnEncoding(c))
		mid := blk.Value(rows/2, c)
		b.Run("CmpSelect/"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blk.CmpSelect(c, mid, true, true, false, out)
			}
		})
		b.Run("Value/"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					_ = blk.Value(r, c)
				}
			}
		})
		if col.Kind.Fixed() {
			b.Run("AppendNums/"+label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					nums = blk.AppendNums(c, nums[:0])
				}
			})
			for _, sel := range selections {
				b.Run("NumsWord/"+sel.name+"/"+label, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for base := 0; base < rows; base += 64 {
							blk.NumsWord(c, base, sel.word, &buf)
						}
					}
				})
			}
		} else if blk.ColumnEncoding(c) == EncDict {
			for _, sel := range selections {
				b.Run("CodesWord/"+sel.name+"/"+label, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for base := 0; base < rows; base += 64 {
							blk.CodesWord(c, base, sel.word, &buf)
						}
					}
				})
			}
		}
	}
	b.Run("UnmarshalKeyFingerprints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh, _ := Unmarshal(data)
			fresh.KeyFingerprints([]int{0, 1})
		}
	})
}
