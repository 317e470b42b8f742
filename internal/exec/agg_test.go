package exec

import (
	"math"
	"math/rand"
	"testing"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
)

// TestAddBlockEquivalenceProperty is the correctness anchor of the
// column-at-a-time aggregate kernel: over randomized blocks (every
// encoding, forced and auto-selected; empty blocks and row counts off a
// word boundary) and random, empty and full selections, AddBlock must
// finalize to exactly the rows that per-row Add over the same selected
// rows does — float sums compared bit for bit. Several blocks feed one
// partial, so the kernel's scratch is reused across blocks of different
// sizes and encodings; half the trials draw amounts that sum inexactly,
// so the accumulation order shows in the bits.
func TestAddBlockEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xadd))
	encodings := []*columnar.Encoding{nil} // nil: automatic selection
	for _, e := range []columnar.Encoding{columnar.EncPlain, columnar.EncDict, columnar.EncBitPack, columnar.EncRLE} {
		e := e
		encodings = append(encodings, &e)
	}
	var aggs []Agg
	aggs = append(aggs, Agg{Func: Count})
	for _, c := range testCols {
		aggs = append(aggs, Agg{Func: Count, Col: c.Name}, Agg{Func: Min, Col: c.Name}, Agg{Func: Max, Col: c.Name})
	}
	for _, c := range []string{"amount", "qty", "id"} {
		aggs = append(aggs, Agg{Func: Sum, Col: c}, Agg{Func: Avg, Col: c})
	}
	groupings := [][]string{nil, {"region"}, {"qty"}, {"id", "region"}}
	plans := []Plan{{}} // the row plan rides along
	for _, g := range groupings {
		plans = append(plans, Plan{GroupBy: g, Aggs: aggs})
	}

	for trial := 0; trial < 400; trial++ {
		plan := plans[trial%len(plans)]
		bound, err := plan.Bind(testCols)
		if err != nil {
			t.Fatal(err)
		}
		inexact := trial%2 == 1
		byBlock, byRow := bound.NewPartial(), bound.NewPartial()
		for b := 1 + rng.Intn(3); b > 0; b-- {
			rows := []int{0, 1, 63, 64, 65, 128, rng.Intn(300)}[rng.Intn(7)]
			blk := randomAggBlock(rng, rows, encodings[rng.Intn(len(encodings))], inexact)
			sel := randomSelection(rng, rows)
			byBlock.AddBlock(blk, sel)
			for r := 0; r < rows; r++ {
				if sel.Get(r) {
					r := r
					byRow.Add(func(c int) keyenc.Value { return blk.Value(r, c) })
				}
			}
		}
		got, want := bound.Finalize(byBlock), bound.Finalize(byRow)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("trial %d (group by %v): %d rows by block, %d by row", trial, plan.GroupBy, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for c := range want.Rows[i] {
				if g, w := got.Rows[i][c], want.Rows[i][c]; !identicalValue(g, w) {
					t.Fatalf("trial %d (group by %v) row %d column %s: %v by block, %v by row",
						trial, plan.GroupBy, i, got.Columns[c], g, w)
				}
			}
		}
	}
}

// randomAggBlock is randomVecBlock, or, when inexact, the same shape
// with amounts whose float sums round, so summation order changes bits.
func randomAggBlock(rng *rand.Rand, rows int, force *columnar.Encoding, inexact bool) *columnar.Block {
	if !inexact {
		return randomVecBlock(rng, rows, force)
	}
	blk := randomVecBlock(rng, rows, force)
	b := columnar.NewBuilder(blk.Schema())
	if force != nil {
		b.ForceEncoding(*force)
	}
	for r := 0; r < rows; r++ {
		row := blk.Row(r, nil)
		row[2] = keyenc.F64(rng.NormFloat64() * 1e3 / 7)
		if err := b.Append(row); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// randomSelection is an empty, full or random selection over rows, the
// random ones at a random density.
func randomSelection(rng *rand.Rand, rows int) *Bitmap {
	sel := NewBitmap(rows)
	switch rng.Intn(4) {
	case 0:
	case 1:
		sel.SetAll()
	default:
		density := rng.Float64()
		for r := 0; r < rows; r++ {
			if rng.Float64() < density {
				sel.words[r>>6] |= 1 << uint(r&63)
			}
		}
	}
	return sel
}

// identicalValue reports whether two values are the same kind and the
// same value; floats compare by their bits.
func identicalValue(a, b keyenc.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case keyenc.KindInvalid:
		return true
	case keyenc.KindFloat64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return keyenc.Compare(a, b) == 0
	}
}
