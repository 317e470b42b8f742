package wildfire

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"umzi/internal/core"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// TestShardedEquivalenceProperty drives a 1-shard and a 4-shard
// ShardedEngine with the same random workload — upsert batches,
// lockstep grooms, post-grooms, index maintenance — and checks after
// every few rounds that RunQuery (point get, ordered index scan,
// index-only scan, aggregate) and the record-level primitives (scans,
// index-only scans, point and batched lookups) agree exactly, at the
// newest snapshot, at MaxTS and at randomly chosen historical groom
// boundaries. The shard count must be invisible to queries: it only
// changes where rows live.
//
// The comparison runs under both sharding layouts: device (scans pin to
// one shard) and msg (every scan scatters and sort-merges).
func TestShardedEquivalenceProperty(t *testing.T) {
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, shardBy := range []string{"device", "msg"} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("shardBy=%s/seed=%d", shardBy, seed), func(t *testing.T) {
				shardedEquivalence(t, shardBy, seed)
			})
		}
	}
}

func shardedEquivalence(t *testing.T, shardBy string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	td := iotTable()
	td.ShardKey = []string{shardBy}

	single := newTestShardedEngine(t, 1, func(c *ShardedConfig) { c.Table = td })
	sharded := newTestShardedEngine(t, 4, func(c *ShardedConfig) { c.Table = td })

	const devices, msgs = 5, 8
	var boundaries []types.TS // per lockstep groom round

	// upsertBoth applies one committed batch to both systems in the same
	// order. Same-key updates land on the same
	// shard, so relative commit order — and therefore last-writer-wins —
	// is preserved on both sides.
	upsertBoth := func(rows []Row) {
		if err := single.UpsertRows(rows...); err != nil {
			t.Fatal(err)
		}
		if err := sharded.UpsertRows(rows...); err != nil {
			t.Fatal(err)
		}
	}

	groomBoth := func() {
		n1, err := single.groomCount()
		if err != nil {
			t.Fatal(err)
		}
		n2, err := sharded.groomCount()
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("groomed %d records single, %d sharded", n1, n2)
		}
		b1, b2 := single.SnapshotTS(), sharded.SnapshotTS()
		if b1 != b2 {
			t.Fatalf("snapshot boundaries diverged: single %v, sharded %v", b1, b2)
		}
		boundaries = append(boundaries, b1)
	}

	postGroomBoth := func() {
		if err := single.PostGroom(); err != nil {
			t.Fatal(err)
		}
		if err := single.SyncIndex(); err != nil {
			t.Fatal(err)
		}
		if err := sharded.PostGroom(); err != nil {
			t.Fatal(err)
		}
		if err := sharded.SyncIndex(); err != nil {
			t.Fatal(err)
		}
	}

	maintainBoth := func() {
		if _, err := single.MaintainOnce(); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.MaintainOnce(); err != nil {
			t.Fatal(err)
		}
	}

	// rowsEqual compares records by user-row values and beginTS. RIDs and
	// zones legitimately differ (independent grooming pipelines); beginTS
	// groom cycles align because grooms are lockstep, but the commit-seq
	// part is per-shard, so only the cycle part is compared.
	recEqual := func(a, b Record) bool {
		if len(a.Row) != len(b.Row) {
			return false
		}
		for i := range a.Row {
			if keyenc.Compare(a.Row[i], b.Row[i]) != 0 {
				return false
			}
		}
		return a.BeginTS.GroomSeq() == b.BeginTS.GroomSeq()
	}

	// runBoth runs one spec on both tables and requires identical rows.
	runBoth := func(label string, spec QuerySpec) {
		var res [2][][]keyenc.Value
		for i, eng := range []*ShardedEngine{single, sharded} {
			qr, err := eng.RunQuery(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res[i], err = drainCursor(qr.Cursor, nil); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if len(res[0]) != len(res[1]) {
			t.Fatalf("%s: 1-shard %d rows, 4-shard %d", label, len(res[0]), len(res[1]))
		}
		for i := range res[0] {
			for c := range res[0][i] {
				if keyenc.Compare(res[0][i][c], res[1][i][c]) != 0 {
					t.Fatalf("%s row %d col %d: 1-shard %v, 4-shard %v", label, i, c, res[0][i][c], res[1][i][c])
				}
			}
		}
	}

	checkAt := func(ts types.TS, label string) {
		opts := QueryOptions{TS: ts}
		// RunQuery, one spec per compiled access path.
		dev := keyenc.I64(rng.Int63n(devices))
		runBoth(label+" point-get", QuerySpec{TS: ts,
			Filter: exec.And(exec.Eq("device", dev), exec.Eq("msg", keyenc.I64(rng.Int63n(msgs))))})
		runBoth(label+" index-scan", QuerySpec{TS: ts,
			Filter: exec.Eq("device", dev), OrderBy: []string{"msg"}, Limit: 1 + rng.Intn(msgs)})
		runBoth(label+" index-only", QuerySpec{TS: ts,
			Filter: exec.Eq("device", dev), OrderBy: []string{"msg"}, Columns: []string{"msg", "reading"}})
		runBoth(label+" exec", QuerySpec{TS: ts, GroupBy: []string{"device"},
			Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}}})
		// Per-device scans: full range plus a random sub-range.
		for dev := int64(0); dev < devices; dev++ {
			eq := []keyenc.Value{keyenc.I64(dev)}
			lo := rng.Int63n(msgs)
			hi := lo + rng.Int63n(msgs-lo)
			for _, bounds := range [][2][]keyenc.Value{
				{nil, nil},
				{{keyenc.I64(lo)}, {keyenc.I64(hi)}},
			} {
				want, err := tableScanOn(single, "", eq, bounds[0], bounds[1], opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tableScanOn(sharded, "", eq, bounds[0], bounds[1], opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s dev %d: sharded scan %d rows, single %d", label, dev, len(got), len(want))
				}
				for i := range want {
					if !recEqual(want[i], got[i]) {
						t.Fatalf("%s dev %d row %d: sharded %v@%v, single %v@%v",
							label, dev, i, got[i].Row, got[i].BeginTS, want[i].Row, want[i].BeginTS)
					}
				}
			}
			// Index-only scans agree value-for-value.
			wantRows, err := tableIndexOnlyOn(single, "", eq, nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			gotRows, err := tableIndexOnlyOn(sharded, "", eq, nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotRows) != len(wantRows) {
				t.Fatalf("%s dev %d: index-only %d vs %d rows", label, dev, len(gotRows), len(wantRows))
			}
			for i := range wantRows {
				for c := range wantRows[i] {
					if keyenc.Compare(wantRows[i][c], gotRows[i][c]) != 0 {
						t.Fatalf("%s dev %d index-only row %d col %d: %v vs %v",
							label, dev, i, c, gotRows[i][c], wantRows[i][c])
					}
				}
			}
		}
		// Point lookups over the whole key space, hits and misses.
		for dev := int64(0); dev < devices+1; dev++ {
			for msg := int64(0); msg < msgs+1; msg++ {
				eq, sortv := key(dev, msg)
				wr, wf, err := tableGetOn(single, "", eq, sortv, opts)
				if err != nil {
					t.Fatal(err)
				}
				gr, gf, err := tableGetOn(sharded, "", eq, sortv, opts)
				if err != nil {
					t.Fatal(err)
				}
				if wf != gf {
					t.Fatalf("%s get (%d,%d): found %v vs %v", label, dev, msg, gf, wf)
				}
				if wf && !recEqual(wr, gr) {
					t.Fatalf("%s get (%d,%d): %v vs %v", label, dev, msg, gr.Row, wr.Row)
				}
			}
		}
		// A batched lookup mixing hits and misses.
		var keys []core.LookupKey
		for i := 0; i < 16; i++ {
			keys = append(keys, core.LookupKey{
				Equality: []keyenc.Value{keyenc.I64(rng.Int63n(devices + 2))},
				Sort:     []keyenc.Value{keyenc.I64(rng.Int63n(msgs + 2))},
			})
		}
		wrecs, wfound, err := single.GetBatch(keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		grecs, gfound, err := sharded.GetBatch(keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if wfound[i] != gfound[i] {
				t.Fatalf("%s batch[%d]: found %v vs %v", label, i, gfound[i], wfound[i])
			}
			if wfound[i] && !recEqual(wrecs[i], grecs[i]) {
				t.Fatalf("%s batch[%d]: %v vs %v", label, i, grecs[i].Row, wrecs[i].Row)
			}
		}
	}

	for round := 0; round < 30; round++ {
		// One committed batch per round (1..3·devices upserts, skewed to
		// recent devices so updates and inserts mix).
		n := 1 + rng.Intn(3*devices)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = row(rng.Int63n(devices), rng.Int63n(msgs), float64(rng.Int63n(1<<20)), 100+rng.Int63n(3))
		}
		upsertBoth(rows)
		groomBoth()

		switch rng.Intn(4) {
		case 0:
			postGroomBoth()
		case 1:
			maintainBoth()
		}

		if round%5 == 4 {
			checkAt(sharded.SnapshotTS(), fmt.Sprintf("round %d snapshot", round))
			checkAt(types.MaxTS, fmt.Sprintf("round %d max", round))
			if len(boundaries) > 1 {
				b := boundaries[rng.Intn(len(boundaries))]
				checkAt(b, fmt.Sprintf("round %d boundary %v", round, b))
			}
		}
	}
	postGroomBoth()
	maintainBoth()
	checkAt(types.MaxTS, "final")
}
