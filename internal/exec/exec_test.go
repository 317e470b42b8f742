package exec

import (
	"reflect"
	"testing"

	"umzi/internal/columnar"
	"umzi/internal/keyenc"
)

var testCols = []columnar.Column{
	{Name: "id", Kind: keyenc.KindInt64},
	{Name: "region", Kind: keyenc.KindString},
	{Name: "amount", Kind: keyenc.KindFloat64},
	{Name: "qty", Kind: keyenc.KindUint64},
}

func rowView(vals ...keyenc.Value) RowView {
	return func(c int) keyenc.Value { return vals[c] }
}

func testRow(id int64, region string, amount float64, qty uint64) RowView {
	return rowView(keyenc.I64(id), keyenc.Str(region), keyenc.F64(amount), keyenc.U64(qty))
}

func TestBindErrors(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"unknown filter column", Plan{Filter: Eq("nope", keyenc.I64(1))}},
		{"kind mismatch", Plan{Filter: Gt("region", keyenc.I64(1))}},
		{"empty and", Plan{Filter: And()}},
		{"empty or", Plan{Filter: Or()}},
		{"group by without aggs", Plan{GroupBy: []string{"region"}}},
		{"projection with aggs", Plan{Columns: []string{"id"}, Aggs: []Agg{{Func: Count}}}},
		{"sum on string", Plan{Aggs: []Agg{{Func: Sum, Col: "region"}}}},
		{"avg without column", Plan{Aggs: []Agg{{Func: Avg}}}},
		{"unknown agg column", Plan{Aggs: []Agg{{Func: Sum, Col: "nope"}}}},
		{"unknown group column", Plan{GroupBy: []string{"nope"}, Aggs: []Agg{{Func: Count}}}},
		{"unknown projection", Plan{Columns: []string{"nope"}}},
		{"negative limit", Plan{Limit: -1}},
	}
	for _, c := range cases {
		if _, err := c.plan.Bind(testCols); err == nil {
			t.Errorf("%s: Bind accepted invalid plan", c.name)
		}
	}
}

func TestPredicateEval(t *testing.T) {
	row := testRow(7, "emea", 12.5, 3)
	cases := []struct {
		expr Expr
		want bool
	}{
		{Eq("id", keyenc.I64(7)), true},
		{Eq("id", keyenc.I64(8)), false},
		{Ne("region", keyenc.Str("apac")), true},
		{Lt("amount", keyenc.F64(12.5)), false},
		{Le("amount", keyenc.F64(12.5)), true},
		{Gt("qty", keyenc.U64(2)), true},
		{Ge("qty", keyenc.U64(4)), false},
		{And(Gt("id", keyenc.I64(0)), Eq("region", keyenc.Str("emea"))), true},
		{And(Gt("id", keyenc.I64(0)), Eq("region", keyenc.Str("apac"))), false},
		{Or(Eq("region", keyenc.Str("apac")), Gt("amount", keyenc.F64(10))), true},
		{Or(Eq("region", keyenc.Str("apac")), Gt("amount", keyenc.F64(100))), false},
		// String constants against bytes-compatible columns.
		{Eq("region", keyenc.Raw([]byte("emea"))), true},
	}
	for _, c := range cases {
		b, err := Plan{Filter: c.expr}.Bind(testCols)
		if err != nil {
			t.Fatalf("%v: %v", c.expr, err)
		}
		if got := b.Matches(row); got != c.want {
			t.Errorf("%v: got %v, want %v", c.expr, got, c.want)
		}
	}
}

// buildBlock assembles a columnar block over testCols.
func buildBlock(t *testing.T, rows ...[]keyenc.Value) *columnar.Block {
	t.Helper()
	b := columnar.NewBuilder(columnar.MustSchema(testCols...))
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestCanMatchBlock(t *testing.T) {
	blk := buildBlock(t,
		[]keyenc.Value{keyenc.I64(10), keyenc.Str("emea"), keyenc.F64(1), keyenc.U64(5)},
		[]keyenc.Value{keyenc.I64(20), keyenc.Str("emea"), keyenc.F64(9), keyenc.U64(5)},
	)
	cases := []struct {
		expr Expr
		want bool
	}{
		{Eq("id", keyenc.I64(15)), true},          // inside [10,20]
		{Eq("id", keyenc.I64(30)), false},         // above max
		{Lt("id", keyenc.I64(10)), false},         // min not below
		{Le("id", keyenc.I64(10)), true},          // min equals bound
		{Gt("id", keyenc.I64(20)), false},         // max not above
		{Ge("id", keyenc.I64(20)), true},          // max equals bound
		{Ne("region", keyenc.Str("emea")), false}, // single-valued column pinned to constant
		{Ne("id", keyenc.I64(10)), true},
		{And(Ge("id", keyenc.I64(0)), Gt("amount", keyenc.F64(100))), false},
		{Or(Gt("amount", keyenc.F64(100)), Eq("qty", keyenc.U64(5))), true},
	}
	for _, c := range cases {
		b, err := Plan{Filter: c.expr}.Bind(testCols)
		if err != nil {
			t.Fatalf("%v: %v", c.expr, err)
		}
		if got := b.CanMatchBlock(blk); got != c.want {
			t.Errorf("%v: CanMatchBlock=%v, want %v", c.expr, got, c.want)
		}
	}

	// Empty blocks can never match, with or without a filter.
	empty := buildBlock(t)
	for _, p := range []Plan{{}, {Filter: Eq("id", keyenc.I64(1))}} {
		b, err := p.Bind(testCols)
		if err != nil {
			t.Fatal(err)
		}
		if b.CanMatchBlock(empty) {
			t.Errorf("empty block reported matchable (plan %+v)", p)
		}
	}
}

func TestAggregatePartialMerge(t *testing.T) {
	plan := Plan{
		GroupBy: []string{"region"},
		Aggs: []Agg{
			{Func: Count},
			{Func: Sum, Col: "amount"},
			{Func: Min, Col: "id"},
			{Func: Max, Col: "id"},
			{Func: Avg, Col: "qty", As: "avg_qty"},
		},
	}
	b, err := plan.Bind(testCols)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"region", "count(*)", "sum(amount)", "min(id)", "max(id)", "avg_qty"}
	if !reflect.DeepEqual(b.Columns(), wantCols) {
		t.Fatalf("columns = %v, want %v", b.Columns(), wantCols)
	}

	// Split the same rows across two partials; the merged result must
	// equal a single-partial evaluation — AVG included, since it ships as
	// a sum/count pair.
	rows := []RowView{
		testRow(1, "emea", 10, 1),
		testRow(2, "emea", 20, 2),
		testRow(3, "apac", 5, 7),
		testRow(4, "apac", 2.5, 1),
		testRow(5, "amer", 100, 4),
	}
	one := b.NewPartial()
	p1, p2 := b.NewPartial(), b.NewPartial()
	for i, r := range rows {
		one.Add(r)
		if i%2 == 0 {
			p1.Add(r)
		} else {
			p2.Add(r)
		}
	}
	single := b.Finalize(one)
	merged := b.Finalize(p1, nil, p2)
	if !reflect.DeepEqual(single, merged) {
		t.Fatalf("merged partials differ from single partial:\n%v\nvs\n%v", merged, single)
	}

	// Spot-check content: groups sorted by key (amer, apac, emea).
	if len(merged.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(merged.Rows))
	}
	apac := merged.Rows[1]
	if apac[0].Bytes(); string(apac[0].Bytes()) != "apac" {
		t.Fatalf("group order wrong: %v", merged.Rows)
	}
	if apac[1].Int() != 2 || apac[2].Float() != 7.5 || apac[3].Int() != 3 || apac[4].Int() != 4 {
		t.Fatalf("apac aggregates wrong: %v", apac)
	}
	if got := apac[5].Float(); got != 4 {
		t.Fatalf("apac avg qty = %v, want 4", got)
	}
}

func TestGlobalAggregateAndEmptyResult(t *testing.T) {
	plan := Plan{
		Filter: Gt("amount", keyenc.F64(15)),
		Aggs:   []Agg{{Func: Count}, {Func: Avg, Col: "amount"}},
	}
	b, err := plan.Bind(testCols)
	if err != nil {
		t.Fatal(err)
	}
	p := b.NewPartial()
	for _, r := range []RowView{testRow(1, "a", 20, 1), testRow(2, "b", 40, 1), testRow(3, "c", 10, 1)} {
		if b.Matches(r) {
			p.Add(r)
		}
	}
	res := b.Finalize(p)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 || res.Rows[0][1].Float() != 30 {
		t.Fatalf("global aggregate wrong: %v", res.Rows)
	}

	// No qualifying rows: a global aggregate still yields exactly one
	// row — COUNT is 0, AVG is the zero (NULL stand-in) Value.
	empty := b.Finalize(b.NewPartial())
	if len(empty.Rows) != 1 {
		t.Fatalf("empty global aggregate rows = %v, want one row", empty.Rows)
	}
	if got := empty.Rows[0][0].Int(); got != 0 {
		t.Fatalf("empty COUNT = %d, want 0", got)
	}
	if got := empty.Rows[0][1].Kind(); got != keyenc.KindInvalid {
		t.Fatalf("empty AVG kind = %v, want the zero Value", got)
	}
	if noParts := b.Finalize(); len(noParts.Rows) != 1 || noParts.Rows[0][0].Int() != 0 {
		t.Fatalf("Finalize of no partials = %v, want the zero-count row", b.Finalize().Rows)
	}

	// Grouped aggregates keep SQL semantics too: zero qualifying rows
	// means zero groups, not a synthesized one.
	gplan := Plan{
		Filter:  Gt("amount", keyenc.F64(1e9)),
		GroupBy: []string{"region"},
		Aggs:    []Agg{{Func: Count}},
	}
	gb, err := gplan.Bind(testCols)
	if err != nil {
		t.Fatal(err)
	}
	if res := gb.Finalize(gb.NewPartial()); len(res.Rows) != 0 {
		t.Fatalf("empty grouped aggregate returned rows: %v", res.Rows)
	}
}

// TestRowQuerySortAndLimit: a limited row query sorts nothing; it
// returns the first Limit rows of the unlimited query's order — each
// partial's rows as added, the partials in the order Finalize is given
// them.
func TestRowQuerySortAndLimit(t *testing.T) {
	plan := Plan{
		Filter:  Ge("id", keyenc.I64(2)),
		Columns: []string{"region", "id"},
		Limit:   3,
	}
	b, err := plan.Bind(testCols)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := b.NewPartial(), b.NewPartial()
	p1.Add(testRow(4, "d", 0, 0))
	p1.Add(testRow(2, "b", 0, 0))
	p2.Add(testRow(5, "e", 0, 0))
	p2.Add(testRow(3, "b", 0, 0))
	res := b.Finalize(p2, p1) // partial order is result order
	if !reflect.DeepEqual(res.Columns, []string{"region", "id"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("limit not applied: %d rows", len(res.Rows))
	}
	want := [][2]interface{}{{"e", int64(5)}, {"b", int64(3)}, {"d", int64(4)}}
	for i, w := range want {
		if string(res.Rows[i][0].Bytes()) != w[0].(string) || res.Rows[i][1].Int() != w[1].(int64) {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

// TestRowQueryUnsortedOrder: an unlimited row query is not sorted.
// Finalize hands out each partial's rows in the order they were added
// and the partials in the order it was given them, nil ones skipped;
// across more rows than one arena chunk holds, every row keeps its own
// values, and appending to a returned row never writes into the next.
func TestRowQueryUnsortedOrder(t *testing.T) {
	b, err := Plan{Columns: []string{"id", "region"}}.Bind(testCols)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := b.NewPartial(), b.NewPartial()
	var want []int64
	for id := int64(2*maxArenaRows + 5); id > 0; id-- {
		part := p1
		if id <= maxArenaRows {
			part = p2
		}
		part.Add(testRow(id, "r", 0, 0))
	}
	for id := int64(maxArenaRows); id > 0; id-- {
		want = append(want, id)
	}
	for id := int64(2*maxArenaRows + 5); id > maxArenaRows; id-- {
		want = append(want, id)
	}
	res := b.Finalize(p2, nil, p1)
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		if len(r) != 2 || cap(r) != 2 {
			t.Fatalf("row %d: len %d cap %d, want a capped 2-value row", i, len(r), cap(r))
		}
		if r[0].Int() != want[i] || string(r[1].Bytes()) != "r" {
			t.Fatalf("row %d = %v, want id %d", i, r, want[i])
		}
	}
	_ = append(res.Rows[0], keyenc.I64(-1))
	if res.Rows[1][0].Int() != want[1] {
		t.Fatalf("append to row 0 overwrote row 1: %v", res.Rows[1])
	}
}

// TestRowQueryLimitPushdown checks that a limited row query's partials
// hold at most Limit rows however many qualify, and that pruning never
// changes the final answer: the first Limit rows of the unlimited
// result (the first partial's first rows) survive it.
func TestRowQueryLimitPushdown(t *testing.T) {
	const limit = 5
	b, err := Plan{Columns: []string{"id"}, Limit: limit}.Bind(testCols)
	if err != nil {
		t.Fatal(err)
	}
	// Two partials fed descending ids: p1 the odd ones, p2 the even.
	p1, p2 := b.NewPartial(), b.NewPartial()
	for id := int64(99); id >= 0; id-- {
		part := p1
		if id%2 == 0 {
			part = p2
		}
		part.Add(testRow(id, "", 0, 0))
	}
	for _, p := range []*Partial{p1, p2} {
		if p.NumRows() > limit {
			t.Fatalf("partial holds %d rows, limit pushdown bounds it at %d", p.NumRows(), limit)
		}
	}
	res := b.Finalize(p1, p2)
	if len(res.Rows) != limit {
		t.Fatalf("got %d rows, want %d", len(res.Rows), limit)
	}
	for i, r := range res.Rows {
		if want := int64(99 - 2*i); r[0].Int() != want {
			t.Fatalf("row %d = %v, want id %d", i, r, want)
		}
	}
}
