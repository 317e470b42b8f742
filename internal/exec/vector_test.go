package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
)

// TestVectorizedEquivalenceProperty is the correctness anchor of the
// vectorized path: over randomized blocks (every encoding, forced and
// auto-selected) and randomized predicate trees, FilterBlock must select
// exactly the rows the scalar Matches path accepts, and CanMatchBlock
// must never claim a block skippable when some row matches.
func TestVectorizedEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf11e))
	encodings := []*columnar.Encoding{nil} // nil: automatic selection
	for _, e := range []columnar.Encoding{columnar.EncPlain, columnar.EncDict, columnar.EncBitPack, columnar.EncRLE} {
		e := e
		encodings = append(encodings, &e)
	}
	for trial := 0; trial < 300; trial++ {
		rows := rng.Intn(200)
		blk := randomVecBlock(rng, rows, encodings[trial%len(encodings)])
		expr := randomVecExpr(rng, 0)
		plan := Plan{Filter: expr, Aggs: []Agg{{Func: Count}}}
		bound, err := plan.Bind(testCols)
		if err != nil {
			t.Fatalf("trial %d: bind %v: %v", trial, expr, err)
		}
		sel := bound.FilterBlock(blk)
		if sel.Len() != rows {
			t.Fatalf("trial %d: bitmap length %d, rows %d", trial, sel.Len(), rows)
		}
		matches := 0
		for r := 0; r < rows; r++ {
			r := r
			view := RowView(func(c int) keyenc.Value { return blk.Value(r, c) })
			want := bound.Matches(view)
			if want {
				matches++
			}
			if got := sel.Get(r); got != want {
				t.Fatalf("trial %d: row %d: vectorized %v, scalar %v\nexpr: %v\nrow: %v %v %v %v\nencodings: %v %v %v %v",
					trial, r, got, want, expr,
					blk.Value(r, 0), blk.Value(r, 1), blk.Value(r, 2), blk.Value(r, 3),
					blk.ColumnEncoding(0), blk.ColumnEncoding(1), blk.ColumnEncoding(2), blk.ColumnEncoding(3))
			}
		}
		if got := sel.Count(); got != matches {
			t.Fatalf("trial %d: Count() = %d, scalar found %d", trial, got, matches)
		}
		if !bound.CanMatchBlock(blk) && matches > 0 {
			t.Fatalf("trial %d: CanMatchBlock = false but %d rows match (expr %v)", trial, matches, expr)
		}
		// Marshal round-trip must preserve the verdicts.
		blk2, err := columnar.Unmarshal(blk.Marshal())
		if err != nil {
			t.Fatalf("trial %d: round-trip: %v", trial, err)
		}
		sel2 := bound.FilterBlock(blk2)
		for r := 0; r < rows; r++ {
			if sel.Get(r) != sel2.Get(r) {
				t.Fatalf("trial %d: row %d: selection changed across marshal round-trip", trial, r)
			}
		}
	}
}

// randomVecBlock builds a block over testCols with value distributions
// that exercise each encoding: low-cardinality strings (dict/RLE),
// narrow-range ints (bitpack), sorted and constant stretches (RLE).
func randomVecBlock(rng *rand.Rand, rows int, force *columnar.Encoding) *columnar.Block {
	schema := columnar.MustSchema(testCols...)
	b := columnar.NewBuilder(schema)
	if force != nil {
		b.ForceEncoding(*force)
	}
	base := rng.Int63n(1000)
	sorted := rng.Intn(2) == 0
	for r := 0; r < rows; r++ {
		id := base + rng.Int63n(50)
		if sorted {
			id = base + int64(r)/3
		}
		region := fmt.Sprintf("r%02d", rng.Intn(4))
		row := []keyenc.Value{
			keyenc.I64(id),
			keyenc.Str(region),
			keyenc.F64(float64(rng.Intn(20)) / 4),
			keyenc.U64(uint64(rng.Intn(3))),
		}
		if err := b.Append(row); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// randomVecExpr builds a random predicate tree over testCols, with
// constants drawn from the same distributions as the data so that both
// hits and misses occur.
func randomVecExpr(rng *rand.Rand, depth int) Expr {
	if depth < 2 && rng.Intn(3) == 0 {
		n := 2 + rng.Intn(2)
		kids := make([]Expr, n)
		for i := range kids {
			kids[i] = randomVecExpr(rng, depth+1)
		}
		if rng.Intn(2) == 0 {
			return And(kids...)
		}
		return Or(kids...)
	}
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(4) {
	case 0:
		return Cmp("id", op, keyenc.I64(rng.Int63n(1100)))
	case 1:
		return Cmp("region", op, keyenc.Str(fmt.Sprintf("r%02d", rng.Intn(5))))
	case 2:
		return Cmp("amount", op, keyenc.F64(float64(rng.Intn(22))/4))
	default:
		return Cmp("qty", op, keyenc.U64(uint64(rng.Intn(4))))
	}
}
