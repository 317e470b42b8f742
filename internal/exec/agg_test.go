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

// TestAddBlockAllocs: a fresh partial and its first 4,096-row block cost
// the partial, its group map and its groups, never the block's rows —
// AddBlock decodes each selection word into buffers on its stack. The
// cases cover a global aggregate, a GROUP BY on a dict-encoded column
// (whose code table, sized to the dictionary, is the one scratch slice)
// and SUM columns of every fixed kind encoded plain, bit-packed and RLE.
func TestAddBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations")
	}
	const rows = 4096
	build := func(force *columnar.Encoding) *columnar.Block {
		b := columnar.NewBuilder(columnar.MustSchema(testCols...))
		if force != nil {
			b.ForceEncoding(*force)
		}
		for r := 0; r < rows; r++ {
			row := []keyenc.Value{
				keyenc.I64(int64(r / 3)),
				keyenc.Str(regionOf(r)),
				keyenc.F64(float64(r%20) / 4),
				keyenc.U64(uint64(r % 3)),
			}
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	sums := []Agg{
		{Func: Count},
		{Func: Sum, Col: "id"}, {Func: Sum, Col: "amount"}, {Func: Sum, Col: "qty"},
		{Func: Avg, Col: "id"}, {Func: Avg, Col: "amount"}, {Func: Avg, Col: "qty"},
	}
	enc := func(e columnar.Encoding) *columnar.Encoding { return &e }
	cases := []struct {
		name    string
		force   *columnar.Encoding // nil: automatic selection
		groupBy []string
		groups  int
	}{
		{"global", nil, nil, 1},
		{"dict group by", nil, []string{"region"}, 4},
		{"plain sums", enc(columnar.EncPlain), nil, 1},
		{"bit-packed sums", enc(columnar.EncBitPack), nil, 1},
		{"RLE sums", enc(columnar.EncRLE), nil, 1},
	}
	for _, c := range cases {
		blk := build(c.force)
		for col := 0; c.force != nil && col < len(testCols); col++ {
			if got := blk.ColumnEncoding(col); testCols[col].Kind.Fixed() && got != *c.force {
				t.Fatalf("%s: column %s is %v", c.name, testCols[col].Name, got)
			}
		}
		if _, dict := blk.Dict(1); dict != (c.force == nil) {
			t.Fatalf("%s: region dict-encoded = %v", c.name, dict)
		}
		bound, err := Plan{GroupBy: c.groupBy, Aggs: sums}.Bind(testCols)
		if err != nil {
			t.Fatal(err)
		}
		sel := NewBitmap(rows)
		sel.SetAll()
		var part *Partial
		allocs := testing.AllocsPerRun(20, func() {
			part = bound.NewPartial()
			part.AddBlock(blk, sel)
		})
		if n := part.NumGroups(); n != c.groups {
			t.Fatalf("%s: %d groups, want %d", c.name, n, c.groups)
		}
		// The partial and its map; per group its state and accumulators;
		// the map's table. A GROUP BY adds per group its key values and
		// map key, plus the key scratch and the dict column's code table.
		perGroup, scratch := 2, 1
		if c.groupBy != nil {
			perGroup, scratch = 4, 3
		}
		budget := 2 + perGroup*c.groups + scratch
		if allocs > float64(budget) {
			t.Errorf("%s: NewPartial + AddBlock over %d rows: %v allocations, budget %d", c.name, rows, allocs, budget)
		}
	}
}

// regionOf is row r's region: four values, in runs of one.
func regionOf(r int) string { return []string{"apac", "emea", "latam", "na"}[r%4] }
