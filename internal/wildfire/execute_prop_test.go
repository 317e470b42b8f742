package wildfire

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// TestExecuteEquivalenceProperty drives a single shard and a 4-shard
// ShardedEngine with the same random workload — upserts with key
// updates, lockstep grooms, post-grooms — and checks random analytical
// plans (filters, projections, aggregates, GROUP BY) against a naive
// scan-then-filter-then-aggregate reference computed from a model of
// the table. Checks run with the live zone both excluded and included,
// so groups routinely straddle the live/groomed boundary, at MaxTS
// without live (the executor caps it at the groom boundary), and at
// historical groom boundaries so beginTS visibility (and the executor's
// beginTS block skipping) is exercised. The single engine also runs
// every plan as a forced zone scan (NoIndexSelection), so index
// selection is checked against the scan it replaces.
//
// Each seed runs two key layouts: random keys, whose versions of one key
// spread across many blocks, and sequential keys, where every groom
// covers a fresh device range so the groomed and post-groomed blocks are
// pairwise disjoint on the leading primary-key column and each holds one
// version per key — until the last round commits live versions of keys
// inside those blocks.
//
// Readings are whole numbers stored as float64, so float sums are exact
// and order-independent: the reference, the single engine and the
// 4-shard partial-aggregate merge must agree bit-for-bit.
func TestExecuteEquivalenceProperty(t *testing.T) {
	seeds := []int64{3, 77}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, l := range []equivLayout{randomLayout(), sequentialLayout()} {
				t.Run("layout="+l.name, func(t *testing.T) {
					executeEquivalence(t, seed, l)
				})
			}
		})
	}
}

// equivLayout shapes the property's workload: the committed rows of each
// round and whether the round's groom is followed by a post-groom.
// devices bounds the device values the generated plans compare against.
type equivLayout struct {
	name      string
	devices   int64
	rows      func(rng *rand.Rand, round int) []Row
	postGroom func(rng *rand.Rand, round int) bool
}

const (
	equivRounds = 24
	equivMsgs   = 9
)

// randomLayout updates and inserts random keys over a small key space.
func randomLayout() equivLayout {
	const devices = 6
	return equivLayout{
		name:    "random",
		devices: devices,
		rows: func(rng *rand.Rand, round int) []Row {
			rows := make([]Row, 1+rng.Intn(12))
			for i := range rows {
				rows[i] = row(rng.Int63n(devices), rng.Int63n(equivMsgs), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
			}
			return rows
		},
		postGroom: func(rng *rand.Rand, round int) bool { return rng.Intn(3) == 0 },
	}
}

// sequentialLayout writes every key of a fresh device range per round,
// all on one day, so each groomed block covers its own device range. A
// post-groom right after a groom consumes that one block and writes one
// partition block over the same range, so the post-groomed blocks stay
// disjoint too. The last round also commits live versions of keys the
// blocks hold.
func sequentialLayout() equivLayout {
	const perRound = 2
	return equivLayout{
		name:    "sequential",
		devices: equivRounds * perRound,
		rows: func(rng *rand.Rand, round int) []Row {
			var rows []Row
			for d := int64(round * perRound); d < int64((round+1)*perRound); d++ {
				for m := int64(0); m < equivMsgs; m++ {
					rows = append(rows, row(d, m, float64(rng.Int63n(1000)), 100+int64(round%3)))
				}
			}
			if round == equivRounds-1 {
				for i := 0; i < 12; i++ {
					d := rng.Int63n(int64(round * perRound))
					rows = append(rows, row(d, rng.Int63n(equivMsgs), float64(rng.Int63n(1000)), 100+rng.Int63n(3)))
				}
			}
			return rows
		},
		postGroom: func(rng *rand.Rand, round int) bool { return round < equivRounds/2 },
	}
}

// refFilter is the reference implementation of a generated predicate.
type refFilter func(Row) bool

func refHolds(op exec.CmpOp, c int) bool {
	switch op {
	case exec.OpEq:
		return c == 0
	case exec.OpNe:
		return c != 0
	case exec.OpLt:
		return c < 0
	case exec.OpLe:
		return c <= 0
	case exec.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// genLeaf returns a random comparison over the IoT table and its
// independent reference evaluator.
func genLeaf(rng *rand.Rand, devices, msgs int64) (exec.Expr, refFilter) {
	ops := []exec.CmpOp{exec.OpEq, exec.OpNe, exec.OpLt, exec.OpLe, exec.OpGt, exec.OpGe}
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(4) {
	case 0:
		v := keyenc.I64(rng.Int63n(devices + 1))
		return exec.Cmp("device", op, v), func(r Row) bool { return refHolds(op, keyenc.Compare(r[0], v)) }
	case 1:
		v := keyenc.I64(rng.Int63n(msgs + 1))
		return exec.Cmp("msg", op, v), func(r Row) bool { return refHolds(op, keyenc.Compare(r[1], v)) }
	case 2:
		v := keyenc.F64(float64(rng.Int63n(1000)))
		return exec.Cmp("reading", op, v), func(r Row) bool { return refHolds(op, keyenc.Compare(r[2], v)) }
	default:
		v := keyenc.I64(100 + rng.Int63n(3))
		return exec.Cmp("day", op, v), func(r Row) bool { return refHolds(op, keyenc.Compare(r[3], v)) }
	}
}

// genFilter returns a random predicate tree (nil ~25% of the time).
func genFilter(rng *rand.Rand, devices, msgs int64) (exec.Expr, refFilter) {
	switch rng.Intn(4) {
	case 0:
		return nil, func(Row) bool { return true }
	case 1:
		return genLeaf(rng, devices, msgs)
	case 2:
		a, ra := genLeaf(rng, devices, msgs)
		b, rb := genLeaf(rng, devices, msgs)
		return exec.And(a, b), func(r Row) bool { return ra(r) && rb(r) }
	default:
		a, ra := genLeaf(rng, devices, msgs)
		b, rb := genLeaf(rng, devices, msgs)
		return exec.Or(a, b), func(r Row) bool { return ra(r) || rb(r) }
	}
}

// genPlan returns a random plan and its reference filter. Roughly a
// third are row queries, the rest aggregate with random GROUP BY.
func genPlan(rng *rand.Rand, devices, msgs int64) (exec.Plan, refFilter) {
	f, rf := genFilter(rng, devices, msgs)
	p := exec.Plan{Filter: f}
	if rng.Intn(3) == 0 {
		projections := [][]string{nil, {"device", "msg"}, {"reading"}, {"day", "reading", "device"}}
		p.Columns = projections[rng.Intn(len(projections))]
		if rng.Intn(3) == 0 {
			p.Limit = 1 + rng.Intn(10)
		}
		return p, rf
	}
	groupings := [][]string{nil, {"day"}, {"device"}, {"day", "device"}}
	p.GroupBy = groupings[rng.Intn(len(groupings))]
	aggPool := []exec.Agg{
		{Func: exec.Count},
		{Func: exec.Sum, Col: "reading"},
		{Func: exec.Avg, Col: "reading"},
		{Func: exec.Min, Col: "reading"},
		{Func: exec.Max, Col: "msg"},
		{Func: exec.Count, Col: "day"},
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		p.Aggs = append(p.Aggs, aggPool[rng.Intn(len(aggPool))])
	}
	return p, rf
}

// naiveExecute is the reference: filter the reconciled rows, then
// project or aggregate with plain Go — no exec machinery beyond the
// plan shape itself. A row plan's reference is every qualifying row,
// whatever its Limit: which rows a limited plan keeps depends on the
// engine's row order (compareRows, checkLimitPrefix).
func naiveExecute(td TableDef, p exec.Plan, rf refFilter, visible []Row) [][]keyenc.Value {
	var match []Row
	for _, r := range visible {
		if rf(r) {
			match = append(match, r)
		}
	}
	colIdx := func(name string) int { return td.colIndex(name) }

	if len(p.Aggs) == 0 {
		names := p.Columns
		if len(names) == 0 {
			for _, c := range td.Columns {
				names = append(names, c.Name)
			}
		}
		out := make([][]keyenc.Value, 0, len(match))
		for _, r := range match {
			pr := make([]keyenc.Value, len(names))
			for i, n := range names {
				pr[i] = r[colIdx(n)]
			}
			out = append(out, pr)
		}
		return out
	}

	type refGroup struct {
		keyVals []keyenc.Value
		rows    []Row
	}
	groups := map[string]*refGroup{}
	for _, r := range match {
		var kb []byte
		var kv []keyenc.Value
		for _, g := range p.GroupBy {
			v := r[colIdx(g)]
			kb = keyenc.Append(kb, v)
			kv = append(kv, v)
		}
		g, ok := groups[string(kb)]
		if !ok {
			g = &refGroup{keyVals: kv}
			groups[string(kb)] = g
		}
		g.rows = append(g.rows, r)
	}
	if len(p.GroupBy) == 0 && len(groups) == 0 {
		// Global aggregate over zero qualifying rows: exactly one result
		// row — COUNT 0, SUM the typed zero, AVG/MIN/MAX the zero Value
		// (the engine's NULL stand-in).
		rowOut := make([]keyenc.Value, 0, len(p.Aggs))
		for _, a := range p.Aggs {
			switch a.Func {
			case exec.Count:
				rowOut = append(rowOut, keyenc.I64(0))
			case exec.Sum:
				switch td.Columns[colIdx(a.Col)].Kind {
				case keyenc.KindInt64:
					rowOut = append(rowOut, keyenc.I64(0))
				case keyenc.KindUint64:
					rowOut = append(rowOut, keyenc.U64(0))
				default:
					rowOut = append(rowOut, keyenc.F64(0))
				}
			default:
				rowOut = append(rowOut, keyenc.Value{})
			}
		}
		return [][]keyenc.Value{rowOut}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][]keyenc.Value
	for _, k := range keys {
		g := groups[k]
		rowOut := append([]keyenc.Value(nil), g.keyVals...)
		for _, a := range p.Aggs {
			switch a.Func {
			case exec.Count:
				rowOut = append(rowOut, keyenc.I64(int64(len(g.rows))))
			case exec.Sum, exec.Avg:
				sum := 0.0
				for _, r := range g.rows {
					sum += r[colIdx(a.Col)].Float()
				}
				if a.Func == exec.Sum {
					rowOut = append(rowOut, keyenc.F64(sum))
				} else {
					rowOut = append(rowOut, keyenc.F64(sum/float64(len(g.rows))))
				}
			case exec.Min, exec.Max:
				best := g.rows[0][colIdx(a.Col)]
				for _, r := range g.rows[1:] {
					v := r[colIdx(a.Col)]
					if (a.Func == exec.Min) == (keyenc.Compare(v, best) < 0) && keyenc.Compare(v, best) != 0 {
						best = v
					}
				}
				rowOut = append(rowOut, best)
			}
		}
		out = append(out, rowOut)
	}
	if p.Limit > 0 && len(out) > p.Limit {
		out = out[:p.Limit]
	}
	return out
}

// modelRows merges models (later ones win per key) into the visible rows.
func modelRows(models ...map[string]Row) []Row {
	merged := map[string]Row{}
	for _, m := range models {
		maps.Copy(merged, m)
	}
	out := make([]Row, 0, len(merged))
	for _, r := range merged {
		out = append(out, r)
	}
	return out
}

// canonicalRows returns rows sorted by their composite encoding when p
// is a row plan, whose rows come in an order that depends on the shard
// count and block layout, so that such results compare as multisets;
// aggregate results keep their sequence.
func canonicalRows(p exec.Plan, rows [][]keyenc.Value) [][]keyenc.Value {
	if len(p.Aggs) > 0 {
		return rows
	}
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b []keyenc.Value) int {
		return bytes.Compare(keyenc.AppendComposite(nil, a...), keyenc.AppendComposite(nil, b...))
	})
	return out
}

// compareRows fails the test unless got, an engine's result for p,
// matches the reference want: row for row for aggregates, as multisets
// for row plans (canonicalRows). A limited row plan's reference holds
// every qualifying row; got must hold min(Limit, len(want)) of them.
func compareRows(t *testing.T, label string, p exec.Plan, got, want [][]keyenc.Value) {
	t.Helper()
	if len(p.Aggs) == 0 && p.Limit > 0 {
		if n := min(p.Limit, len(want)); len(got) != n {
			t.Fatalf("%s: %d rows, want %d (Limit %d, reference %d)\nplan: %+v\ngot:  %v", label, len(got), n, p.Limit, len(want), p, got)
		}
		left := make(map[string]int, len(want))
		for _, r := range want {
			left[string(keyenc.AppendComposite(nil, r...))]++
		}
		for i, r := range got {
			k := string(keyenc.AppendComposite(nil, r...))
			if left[k] == 0 {
				t.Fatalf("%s row %d: %v is not a reference row (or repeats one)\nplan: %+v\ngot:  %v\nwant: %v", label, i, r, p, got, want)
			}
			left[k]--
		}
		return
	}
	equalRows(t, label, p, canonicalRows(p, got), canonicalRows(p, want))
}

// checkLimitPrefix fails the test unless got, an engine's result for a
// limited row plan p, is the first Limit rows of run's result for p
// without its Limit: the same engine on the same table state. Other
// plans pass.
func checkLimitPrefix(t *testing.T, label string, p exec.Plan, got [][]keyenc.Value, run func(exec.Plan) (*exec.Result, error)) {
	t.Helper()
	if len(p.Aggs) > 0 || p.Limit == 0 {
		return
	}
	unlimited := p
	unlimited.Limit = 0
	full, err := run(unlimited)
	if err != nil {
		t.Fatalf("%s unlimited: %v", label, err)
	}
	equalRows(t, label+" prefix", p, got, full.Rows[:min(p.Limit, len(full.Rows))])
}

// checkRun runs p through run and checks the result against the
// reference want (compareRows) and, for a limited row plan, against
// run's own unlimited result (checkLimitPrefix).
func checkRun(t *testing.T, label string, p exec.Plan, run func(exec.Plan) (*exec.Result, error), want [][]keyenc.Value) {
	t.Helper()
	got, err := run(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	compareRows(t, label, p, got.Rows, want)
	checkLimitPrefix(t, label, p, got.Rows, run)
}

// equalRows fails the test unless got equals want row for row.
func equalRows(t *testing.T, label string, p exec.Plan, got, want [][]keyenc.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d\nplan: %+v\ngot:  %v\nwant: %v", label, len(got), len(want), p, got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: arity %d vs %d", label, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c].Kind() == keyenc.KindInvalid && want[i][c].Kind() == keyenc.KindInvalid {
				continue // both NULL stand-ins (empty AVG/MIN/MAX)
			}
			if keyenc.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("%s row %d col %d: %v, reference %v\nplan: %+v\ngot:  %v\nwant: %v",
					label, i, c, got[i][c], want[i][c], p, got, want)
			}
		}
	}
}

func executeEquivalence(t *testing.T, seed int64, layout equivLayout) {
	rng := rand.New(rand.NewSource(seed))

	single := newTestEngine(t, nil)
	sharded := newTestShardedEngine(t, 4, nil)

	// The model: newest row per primary key, split into the groomed part
	// (committed at or before the last groom) and the live part. Per
	// groom round a copy of the groomed model is kept so historical
	// boundaries can be checked.
	groomedModel := map[string]Row{}
	liveModel := map[string]Row{}
	var boundaries []types.TS
	var history []map[string]Row

	td := iotTable()
	checkPlan := func(p exec.Plan, rf refFilter, opts QueryOptions, visible []Row, label string) {
		t.Helper()
		want := naiveExecute(td, p, rf, visible)
		for _, eng := range []struct {
			name string
			run  func(exec.Plan) (*exec.Result, error)
		}{
			{"single", func(p exec.Plan) (*exec.Result, error) { return execute(single, p, opts) }},
			{"sharded", func(p exec.Plan) (*exec.Result, error) { return tableExecute(sharded, p, opts) }},
			{"zone-scan", func(p exec.Plan) (*exec.Result, error) {
				o := opts
				o.NoIndexSelection = true
				return execute(single, p, o)
			}},
		} {
			checkRun(t, label+" "+eng.name, p, eng.run, want)
		}
	}

	for round := 0; round < equivRounds; round++ {
		// Groom what the previous round left live (lockstep on both
		// sides), recording the boundary and the model snapshot.
		if _, err := single.groomCount(); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.groomCount(); err != nil {
			t.Fatal(err)
		}
		for k, v := range liveModel {
			groomedModel[k] = v
		}
		liveModel = map[string]Row{}
		if single.lastGroomTS() != sharded.SnapshotTS() {
			t.Fatalf("round %d: boundaries diverged: %v vs %v", round, single.lastGroomTS(), sharded.SnapshotTS())
		}
		boundaries = append(boundaries, single.lastGroomTS())
		snap := make(map[string]Row, len(groomedModel))
		for k, v := range groomedModel {
			snap[k] = v
		}
		history = append(history, snap)

		if layout.postGroom(rng, round) {
			if _, err := single.postGroom(); err != nil {
				t.Fatal(err)
			}
			if err := single.syncIndex(); err != nil {
				t.Fatal(err)
			}
			if err := sharded.PostGroom(); err != nil {
				t.Fatal(err)
			}
			if err := sharded.SyncIndex(); err != nil {
				t.Fatal(err)
			}
		}

		// New committed-but-ungroomed rows; updates and inserts mix, so
		// some keys have a groomed version shadowed by a live one.
		rows := layout.rows(rng, round)
		if err := single.upsert(rows...); err != nil {
			t.Fatal(err)
		}
		if err := sharded.UpsertRows(rows...); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			liveModel[td.pkEncoding(r)] = r
		}

		if round%3 != 2 {
			continue
		}
		for q := 0; q < 4; q++ {
			p, rf := genPlan(rng, layout.devices, equivMsgs)
			checkPlan(p, rf, QueryOptions{}, modelRows(groomedModel),
				fmt.Sprintf("round %d q%d groomed", round, q))
			checkPlan(p, rf, QueryOptions{IncludeLive: true}, modelRows(groomedModel, liveModel),
				fmt.Sprintf("round %d q%d live", round, q))
			checkPlan(p, rf, QueryOptions{TS: types.MaxTS}, modelRows(groomedModel),
				fmt.Sprintf("round %d q%d MaxTS", round, q))
			if len(boundaries) > 1 {
				b := rng.Intn(len(boundaries))
				checkPlan(p, rf, QueryOptions{TS: boundaries[b]}, modelRows(history[b]),
					fmt.Sprintf("round %d q%d boundary %d", round, q, b))
			}
		}
	}
}
