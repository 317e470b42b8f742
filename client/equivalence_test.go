package client_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/front"
	"umzi/internal/server"
	"umzi/internal/wildfire"
	"umzi/internal/wire"
)

// The local-vs-remote equivalence property: a query spec shipped over
// the wire to umzi-server must return exactly the rows the same spec
// returns against the same DB in-process. Specs are generated randomly
// over every builder-expressible shape (filters, projections, ordering,
// aggregates, forced indexes, limits, live unions); when a spec fails
// to compile, both sides must refuse it.

var eqRegions = []string{"east", "west", "north"}

func eqSetup(t *testing.T) (*umzi.Table, *client.Table, func()) {
	t.Helper()
	db, err := umzi.OpenDB(umzi.DBConfig{
		Store:      umzi.NewMemStore(umzi.LatencyModel{}),
		GroomEvery: time.Hour, // manual grooming only: a quiescent DB is deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(umzi.TableDef{
		Name: "eq",
		Columns: []umzi.TableColumn{
			{Name: "k", Kind: umzi.KindInt64},
			{Name: "region", Kind: umzi.KindString},
			{Name: "v", Kind: umzi.KindString},
			{Name: "w", Kind: umzi.KindFloat64},
		},
		PrimaryKey: []string{"k"},
		ShardKey:   []string{"k"},
	}, umzi.TableOptions{
		Shards: 3,
		Index:  umzi.IndexSpec{Sort: []string{"k"}},
		Secondaries: []umzi.SecondaryIndexSpec{{
			Name:      "by_region",
			IndexSpec: umzi.IndexSpec{Equality: []string{"region"}, Sort: []string{"k"}, Included: []string{"v"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	fill := func(lo, hi int) {
		var rows []umzi.Row
		for k := lo; k < hi; k++ {
			rows = append(rows, umzi.Row{
				umzi.I64(int64(k)),
				umzi.Str(eqRegions[rng.Intn(len(eqRegions))]),
				umzi.Str(fmt.Sprintf("v%04d", rng.Intn(50))),
				umzi.F64(float64(rng.Intn(1000)) / 8),
			})
		}
		if err := tbl.Upsert(ctx, rows...); err != nil {
			t.Fatal(err)
		}
	}
	fill(0, 400)
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}
	fill(400, 500) // stays in the live zone: IncludeLive sees 500 rows, snapshots 400

	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	cdb, err := client.Open(client.Config{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	ctbl := cdb.Table("eq")
	cleanup := func() {
		cdb.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		db.Close()
	}
	return tbl, ctbl, cleanup
}

// eqValue draws a filter constant typed for the given column, biased
// into the data's own range so filters select nonempty results often.
func eqValue(rng *rand.Rand, col string) umzi.Value {
	switch col {
	case "k":
		return umzi.I64(int64(rng.Intn(600)) - 50)
	case "region":
		return umzi.Str(append(eqRegions, "nowhere")[rng.Intn(4)])
	case "v":
		return umzi.Str(fmt.Sprintf("v%04d", rng.Intn(60)))
	default: // w
		return umzi.F64(float64(rng.Intn(1100)) / 8)
	}
}

func eqFilter(rng *rand.Rand, depth int) umzi.Expr {
	cols := []string{"k", "region", "v", "w"}
	if depth >= 3 || rng.Intn(3) > 0 {
		col := cols[rng.Intn(len(cols))]
		v := eqValue(rng, col)
		switch rng.Intn(6) {
		case 0:
			return umzi.Eq(col, v)
		case 1:
			return umzi.Ne(col, v)
		case 2:
			return umzi.Lt(col, v)
		case 3:
			return umzi.Le(col, v)
		case 4:
			return umzi.Gt(col, v)
		default:
			return umzi.Ge(col, v)
		}
	}
	kids := make([]umzi.Expr, 1+rng.Intn(3))
	for i := range kids {
		kids[i] = eqFilter(rng, depth+1)
	}
	if rng.Intn(2) == 0 {
		return umzi.And(kids...)
	}
	return umzi.Or(kids...)
}

func eqSpec(rng *rand.Rand) wildfire.QuerySpec {
	spec := wildfire.QuerySpec{
		IncludeLive:      rng.Intn(2) == 0,
		NoIndexSelection: rng.Intn(4) == 0,
	}
	if rng.Intn(4) > 0 {
		spec.Filter = eqFilter(rng, 0)
	}
	if rng.Intn(3) == 0 {
		spec.Limit = 1 + rng.Intn(40)
	}
	switch rng.Intn(6) {
	case 0: // aggregate query
		if rng.Intn(2) == 0 {
			spec.GroupBy = []string{"region"}
		}
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			agg := []umzi.Agg{
				{Func: umzi.AggCount},
				{Func: umzi.AggSum, Col: "w", As: "total"},
				{Func: umzi.AggMin, Col: "k"},
				{Func: umzi.AggMax, Col: "w"},
				{Func: umzi.AggAvg, Col: "w", As: "mean"},
			}[rng.Intn(5)]
			spec.Aggs = append(spec.Aggs, agg)
		}
	case 1: // ordered rows off the primary index
		spec.OrderBy = []string{"k"}
	case 2: // forced secondary: pin its equality column so it can scan
		pin := umzi.Eq("region", umzi.Str(eqRegions[rng.Intn(len(eqRegions))]))
		if spec.Filter != nil {
			spec.Filter = umzi.And(spec.Filter, pin)
		} else {
			spec.Filter = pin
		}
		spec.Via, spec.ViaSet = "by_region", true
	case 3: // projection
		all := []string{"k", "region", "v", "w"}
		n := 1 + rng.Intn(len(all))
		spec.Columns = all[:n]
	}
	return spec
}

// encodeRow canonicalizes a result row: wire-encoded, so value
// comparison is the codec's own bit-exact equality.
func encodeRow(t *testing.T, vals []umzi.Value) string {
	b, err := wire.AppendRow(nil, vals)
	if err != nil {
		t.Fatalf("encode row: %v", err)
	}
	return string(b)
}

// eqBuild lowers a spec through the builder's chained calls — the same
// builder over either transport.
func eqBuild(q *umzi.Query, spec wildfire.QuerySpec) *umzi.Query {
	if spec.Filter != nil {
		q = q.Where(spec.Filter)
	}
	if len(spec.Columns) > 0 {
		q = q.Select(spec.Columns...)
	}
	if len(spec.OrderBy) > 0 {
		q = q.OrderBy(spec.OrderBy...)
	}
	if len(spec.GroupBy) > 0 {
		q = q.GroupBy(spec.GroupBy...)
	}
	if len(spec.Aggs) > 0 {
		q = q.Aggs(spec.Aggs...)
	}
	if spec.Limit > 0 {
		q = q.Limit(spec.Limit)
	}
	if spec.ViaSet {
		q = q.Via(spec.Via)
	}
	if spec.IncludeLive {
		q = q.IncludeLive()
	}
	if spec.NoIndexSelection {
		q = q.NoIndex()
	}
	return q
}

// eqDrain reads a whole result, encoding each row; a compile error is
// returned, a stream error fails the test.
func eqDrain(t *testing.T, what string, rows *umzi.Rows, err error) (cols, out []string, _ error) {
	t.Helper()
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	for rows.Next() {
		out = append(out, encodeRow(t, rows.Values()))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: stream: %v", what, err)
	}
	return rows.Columns(), out, nil
}

// eqSameRows fails unless got holds want's rows, row for row. Both
// sides read one quiescent DB, and every result has one order on one
// table state (OrderBy, group key, the shards' zone order otherwise; a
// Limit keeps a prefix of it), so no spec shape is canonicalized.
func eqSameRows(t *testing.T, what string, spec wildfire.QuerySpec, want, got []string) {
	t.Helper()
	for j := range want {
		if j >= len(got) || want[j] != got[j] {
			t.Fatalf("%s: rows diverge at %d (want %d rows, got %d; spec %+v)",
				what, j, len(want), len(got), spec)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: row counts differ: want %d got %d (spec %+v)", what, len(want), len(got), spec)
	}
}

func TestLocalRemoteEquivalence(t *testing.T) {
	tbl, ctbl, cleanup := eqSetup(t)
	defer cleanup()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1234))

	const iters = 300
	ran, failedBoth, conveniences := 0, 0, 0
	for i := 0; i < iters; i++ {
		spec := eqSpec(rng)
		label := func(side string) string { return fmt.Sprintf("iter %d: %s", i, side) }

		lr, lerr := front.RunSpec(ctx, tbl.Query(), spec)
		localCols, localRows, lerr := eqDrain(t, label("local"), lr, lerr)
		rr, rerr := front.RunSpec(ctx, ctbl.Query(), spec)
		remoteCols, remoteRows, rerr := eqDrain(t, label("remote"), rr, rerr)

		if (lerr == nil) != (rerr == nil) {
			t.Fatalf("iter %d: compile divergence: local=%v remote=%v (spec %+v)", i, lerr, rerr, spec)
		}

		// The builder's chained calls compile the spec RunSpec was given,
		// over either transport.
		for _, b := range []struct {
			side string
			q    *umzi.Query
		}{{"local builder", eqBuild(tbl.Query(), spec)}, {"remote builder", eqBuild(ctbl.Query(), spec)}} {
			rows, err := b.q.Run(ctx)
			cols, got, err := eqDrain(t, label(b.side), rows, err)
			if (err == nil) != (lerr == nil) {
				t.Fatalf("iter %d: %s compile divergence: %v, RunSpec %v (spec %+v)", i, b.side, err, lerr, spec)
			}
			if err == nil {
				if strings.Join(cols, ",") != strings.Join(localCols, ",") {
					t.Fatalf("iter %d: %s columns %v, RunSpec %v (spec %+v)", i, b.side, cols, localCols, spec)
				}
				eqSameRows(t, label(b.side), spec, localRows, got)
			}
		}

		if lerr != nil {
			failedBoth++
			continue
		}
		ran++

		if strings.Join(localCols, ",") != strings.Join(remoteCols, ",") {
			t.Fatalf("iter %d: columns differ: local %v remote %v (spec %+v)", i, localCols, remoteCols, spec)
		}
		eqSameRows(t, label("remote"), spec, localRows, remoteRows)

		// A limited row spec returns the first Limit rows of the same
		// spec run without one, on either transport.
		if spec.Limit > 0 && len(spec.Aggs) == 0 {
			unlimited := spec
			unlimited.Limit = 0
			for _, side := range []struct {
				name string
				q    *umzi.Query
				rows []string
			}{{"local", tbl.Query(), localRows}, {"remote", ctbl.Query(), remoteRows}} {
				ur, uerr := front.RunSpec(ctx, side.q, unlimited)
				_, all, uerr := eqDrain(t, label(side.name+" unlimited"), ur, uerr)
				if uerr != nil {
					t.Fatalf("iter %d: %s unlimited spec refused: %v (spec %+v)", i, side.name, uerr, spec)
				}
				eqSameRows(t, label(side.name+" prefix"), spec, all[:min(spec.Limit, len(all))], side.rows)
			}
		}

		if i%5 == 0 {
			conveniences++
			eqConveniences(t, label("conveniences"), tbl, ctbl, spec, localRows)
		}
	}
	if ran == 0 {
		t.Fatal("no generated spec compiled; the generator is broken")
	}
	t.Logf("equivalence held on %d specs (%d refused identically on both sides; %d also through All/One/Count)",
		ran, failedBoth, conveniences)
}

// eqConveniences runs All, One and Count of one compiling spec on both
// transports: each pair must agree, and All must return the rows the
// spec streams.
func eqConveniences(t *testing.T, what string, tbl *umzi.Table, ctbl *client.Table, spec wildfire.QuerySpec, want []string) {
	t.Helper()
	ctx := context.Background()
	encode := func(rows [][]umzi.Value) []string {
		var out []string
		for _, r := range rows {
			out = append(out, encodeRow(t, r))
		}
		return out
	}

	lall, err := eqBuild(tbl.Query(), spec).All(ctx)
	if err != nil {
		t.Fatalf("%s: local All: %v", what, err)
	}
	rall, err := eqBuild(ctbl.Query(), spec).All(ctx)
	if err != nil {
		t.Fatalf("%s: remote All: %v", what, err)
	}
	eqSameRows(t, what+" local All", spec, want, encode(lall))
	eqSameRows(t, what+" remote All", spec, want, encode(rall))

	lone, lfound, lerr := eqBuild(tbl.Query(), spec).One(ctx)
	rone, rfound, rerr := eqBuild(ctbl.Query(), spec).One(ctx)
	if lerr != nil || rerr != nil {
		t.Fatalf("%s: One: local %v, remote %v (spec %+v)", what, lerr, rerr, spec)
	}
	if lfound != rfound || (lfound && encodeRow(t, lone) != encodeRow(t, rone)) {
		t.Fatalf("%s: One differs: local %v/%v remote %v/%v (spec %+v)", what, lone, lfound, rone, rfound, spec)
	}
	if lfound != (len(want) > 0) {
		t.Fatalf("%s: One found=%v over %d rows (spec %+v)", what, lfound, len(want), spec)
	}

	lcount, lerr := eqBuild(tbl.Query(), spec).Count(ctx)
	rcount, rerr := eqBuild(ctbl.Query(), spec).Count(ctx)
	if (lerr == nil) != (rerr == nil) || lcount != rcount {
		t.Fatalf("%s: Count differs: local %d/%v remote %d/%v (spec %+v)", what, lcount, lerr, rcount, rerr, spec)
	}
	// Count is a bare-filter aggregate, and Via cannot force an
	// aggregate's index: every other spec must be refused.
	bare := len(spec.Columns)+len(spec.OrderBy)+len(spec.GroupBy)+len(spec.Aggs) == 0 && !spec.ViaSet
	if bare != (lerr == nil) {
		t.Fatalf("%s: Count on bare=%v spec: err %v (spec %+v)", what, bare, lerr, spec)
	}
	if bare && spec.Limit == 0 && lcount != int64(len(want)) {
		t.Fatalf("%s: Count = %d over %d streamed rows (spec %+v)", what, lcount, len(want), spec)
	}
}

// TestRemoteExplainRefused pins that an Explain trace, which does not
// travel, fails the remote query loudly instead of staying empty.
func TestRemoteExplainRefused(t *testing.T) {
	_, ctbl, cleanup := eqSetup(t)
	defer cleanup()
	q := ctbl.Query().Where(umzi.Eq("k", umzi.I64(7)))
	q.Explain()
	rows, err := q.Run(context.Background())
	if err == nil {
		rows.Close()
		t.Fatal("remote Run with an Explain trace succeeded; want an error")
	}
	if !strings.Contains(err.Error(), "process-local") {
		t.Fatalf("remote Explain error = %v, want it to say traces are process-local", err)
	}
}
