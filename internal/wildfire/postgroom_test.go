package wildfire

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

func ingestAndGroom(t *testing.T, e *shard, rows ...Row) {
	t.Helper()
	if err := e.upsert(rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
}

func TestPostGroomEndToEnd(t *testing.T) {
	e := newTestEngine(t, nil)
	ingestAndGroom(t, e, row(1, 1, 10.0, 100), row(1, 2, 11.0, 101))
	ingestAndGroom(t, e, row(1, 1, 20.0, 100), row(2, 1, 30.0, 102))

	psn, err := e.postGroom()
	if err != nil {
		t.Fatal(err)
	}
	if psn != 1 {
		t.Fatalf("PSN = %d, want 1", psn)
	}
	if e.zone.Load().maxPSN != 1 {
		t.Fatalf("MaxPSN = %d", e.zone.Load().maxPSN)
	}
	// Indexer is asynchronous: before SyncIndex the index still reads the
	// groomed zone. Queries must be correct either way.
	eq, sortv := key(1, 1)
	rec, found, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec.Row[2].Float() != 20.0 {
		t.Errorf("pre-sync read = %v", rec.Row[2])
	}

	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	if got := e.idx.IndexedPSN(); got != 1 {
		t.Fatalf("IndexedPSN = %d", got)
	}
	rec, found, err = getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec.Row[2].Float() != 20.0 {
		t.Errorf("post-sync read = %v", rec.Row[2])
	}
	if rec.RID.Zone != types.ZonePostGroomed {
		t.Errorf("record not served from post-groomed zone: %v", rec.RID)
	}
	// The deprecated groomed blocks are gone from storage.
	names, _ := e.store.List("tbl/sensors/groomed/")
	if len(names) != 0 {
		t.Errorf("deprecated groomed blocks remain: %v", names)
	}
}

// TestReclaimWaitsForQueryEpoch: a groomed block a post-groom consumed is
// deleted only once the queries that could hold its RIDs have exited. A
// query that resolved a groomed RID before the post-groom and the evolve
// still reads it; the next SyncIndex after the query exits deletes the
// object and drops its decode.
func TestReclaimWaitsForQueryEpoch(t *testing.T) {
	e := newTestEngine(t, nil)
	ingestAndGroom(t, e, row(1, 1, 10.0, 100), row(1, 2, 11.0, 101))
	epoch := e.gate.enter()
	eq, sortv := key(1, 1)
	entry, found, err := e.idx.PointLookup(eq, sortv, e.lastGroomTS())
	if err != nil || !found || entry.RID.Zone != types.ZoneGroomed {
		t.Fatalf("lookup = %v, %v, %v; want a groomed RID", entry.RID, found, err)
	}
	name := groomedBlockName(e.table.Name, entry.RID.Block)
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	if rec, err := e.fetch(context.Background(), entry.RID); err != nil || rec.Row[2].Float() != 10.0 {
		t.Fatalf("in-flight query reads its groomed RID: %v, %v", rec.Row, err)
	}
	if _, err := e.store.Get(name); err != nil {
		t.Fatalf("retired block deleted under an in-flight query: %v", err)
	}

	e.gate.exit(epoch)
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Get(name); err == nil {
		t.Error("retired block still in storage after its epoch drained")
	}
	if _, ok := e.blocks.get(name); ok {
		t.Error("retired block still in the block cache after its epoch drained")
	}
}

func TestPostGroomSetsPrevRIDAndEndTS(t *testing.T) {
	e := newTestEngine(t, nil)
	ingestAndGroom(t, e, row(1, 1, 10.0, 100))
	ingestAndGroom(t, e, row(1, 1, 20.0, 100))
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	eq, sortv := key(1, 1)
	rec, found, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec.PrevRID.IsZero() {
		t.Fatal("newest version has no prevRID after post-groom")
	}
	prev, err := e.fetch(context.Background(), rec.PrevRID)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Row[2].Float() != 10.0 {
		t.Errorf("prev version reading = %v, want 10.0", prev.Row[2])
	}
	// The replaced version's endTS equals the replacement's beginTS.
	if prev.EndTS != rec.BeginTS {
		t.Errorf("prev endTS = %v, want %v (replacement beginTS)", prev.EndTS, rec.BeginTS)
	}
	if rec.EndTS != types.MaxTS {
		t.Errorf("current version endTS = %v, want MaxTS", rec.EndTS)
	}
}

func TestHistoryWalk(t *testing.T) {
	e := newTestEngine(t, nil)
	for v := 1; v <= 4; v++ {
		ingestAndGroom(t, e, row(1, 1, float64(v*10), 100))
		if _, err := e.postGroom(); err != nil {
			t.Fatal(err)
		}
		if err := e.syncIndex(); err != nil {
			t.Fatal(err)
		}
	}
	eq, sortv := key(1, 1)
	hist := history(t, e, eq, sortv)
	if len(hist) != 4 {
		t.Fatalf("history length = %d, want 4", len(hist))
	}
	for i, want := range []float64{40, 30, 20, 10} {
		if hist[i].Row[2].Float() != want {
			t.Errorf("history[%d] = %v, want %v", i, hist[i].Row[2], want)
		}
	}
	// Version chain timestamps: each older version ends where the newer
	// one begins.
	for i := 0; i+1 < len(hist); i++ {
		if hist[i+1].EndTS != hist[i].BeginTS {
			t.Errorf("chain broken at %d: endTS %v != beginTS %v", i, hist[i+1].EndTS, hist[i].BeginTS)
		}
	}
}

// history walks a key's version chain backwards from its newest visible
// version through prevRID (time travel, §2.1): the head get, then one
// fetch per resolved predecessor. Versions groomed but never
// post-groomed have no prevRID yet.
func history(t *testing.T, e *shard, eq, sortv []keyenc.Value) []Record {
	t.Helper()
	rec, found, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatalf("head get: found=%v err=%v", found, err)
	}
	out := []Record{rec}
	for !rec.PrevRID.IsZero() {
		if rec, err = e.fetch(context.Background(), rec.PrevRID); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

func TestPostGroomPartitionsByKey(t *testing.T) {
	e := newTestEngine(t, func(c *ShardedConfig) { c.Partitions = 4 })
	// Rows across 4 distinct days: expect multiple post blocks.
	var rows []Row
	for msg := int64(0); msg < 16; msg++ {
		rows = append(rows, row(1, msg, 1.0, 100+msg%4))
	}
	ingestAndGroom(t, e, rows...)
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	names, err := e.store.List("tbl/sensors/post/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Errorf("partitioned post-groom produced %d blocks, want >= 2", len(names))
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	// All rows still reachable.
	recs, err := scanOn(e, "", []keyenc.Value{keyenc.I64(1)}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 16 {
		t.Errorf("scan after partitioned post-groom: %d rows, want 16", len(recs))
	}
}

func TestPostGroomNothingPending(t *testing.T) {
	e := newTestEngine(t, nil)
	psn, err := e.postGroom()
	if err != nil {
		t.Fatal(err)
	}
	if psn != 0 {
		t.Errorf("PSN = %d for empty post-groom, want 0", psn)
	}
}

func TestMultiplePostGroomCycles(t *testing.T) {
	e := newTestEngine(t, nil)
	for c := 0; c < 6; c++ {
		ingestAndGroom(t, e,
			row(1, int64(c), float64(c), 100),
			row(2, int64(c), float64(c)*2, 101),
		)
		if c%2 == 1 {
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
			if err := e.syncIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.zone.Load().maxPSN != 3 {
		t.Fatalf("MaxPSN = %d, want 3", e.zone.Load().maxPSN)
	}
	recs, err := scanOn(e, "", []keyenc.Value{keyenc.I64(1)}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("scan = %d rows, want 6", len(recs))
	}
	if err := e.idx.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRecovery(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{
		Table: iotTable(),
		Index: iotIndex(),
		Store: store,
	}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 1, 10.0, 100), row(1, 2, 11.0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 1, 20.0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	// More data groomed after the post-groom so both zones are live.
	if err := e.upsert(row(2, 1, 30.0, 101)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	lastTS := e.lastGroomTS()
	e.close()

	// Crash: a new engine over the same storage.
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	if e2.lastGroomTS() < lastTS {
		t.Errorf("recovered groom TS %v < pre-crash %v", e2.lastGroomTS(), lastTS)
	}
	if e2.zone.Load().maxPSN != 1 {
		t.Errorf("recovered MaxPSN = %d, want 1", e2.zone.Load().maxPSN)
	}
	eq, sortv := key(1, 1)
	rec, found, err := getOn(e2, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec.Row[2].Float() != 20.0 {
		t.Errorf("recovered read = %v, want 20.0", rec.Row[2])
	}
	// endTS overlay recovered from sidecars.
	if !rec.PrevRID.IsZero() {
		prev, err := e2.fetch(context.Background(), rec.PrevRID)
		if err != nil {
			t.Fatal(err)
		}
		if prev.EndTS == types.MaxTS {
			t.Error("endTS sidecar lost in recovery")
		}
	}
	eq, sortv = key(2, 1)
	if _, found, _ := getOn(e2, "", eq, sortv, QueryOptions{}); !found {
		t.Error("groomed-after-postgroom record lost in recovery")
	}
	// The engine keeps working after recovery.
	if err := e2.upsert(row(3, 1, 40.0, 102)); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.groomCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e2.syncIndex(); err != nil {
		t.Fatal(err)
	}
	eq, sortv = key(3, 1)
	if _, found, _ := getOn(e2, "", eq, sortv, QueryOptions{}); !found {
		t.Error("post-recovery ingest lost")
	}
}

func TestBackgroundDaemons(t *testing.T) {
	// A 1-shard table's daemons drive its only shard's whole pipeline.
	s := newTestShardedEngine(t, 1, nil)
	e := s.shards[0]
	s.Start(2*time.Millisecond, 10*time.Millisecond)
	for i := int64(0); i < 50; i++ {
		if err := e.upsert(row(1, i, float64(i), 100+i%3)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	deadline := time.Now().Add(3 * time.Second)
	for e.zone.Load().maxPSN == 0 || uint64(e.idx.IndexedPSN()) < uint64(e.zone.Load().maxPSN) {
		if time.Now().After(deadline) {
			t.Fatalf("daemons stalled: MaxPSN=%d IndexedPSN=%d live=%d", e.zone.Load().maxPSN, e.idx.IndexedPSN(), e.liveCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	recs, err := scanOn(e, "", []keyenc.Value{keyenc.I64(1)}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no data visible after background grooming")
	}
}

func TestConcurrentIngestAndQueries(t *testing.T) {
	// The Figure 12 shape at test scale: ingest + groom + post-groom +
	// evolve running while readers hammer point lookups.
	e := newTestEngine(t, nil)
	const devices, msgs = 4, 8

	// Seed so readers always find data.
	var seed []Row
	for d := int64(0); d < devices; d++ {
		for m := int64(0); m < msgs; m++ {
			seed = append(seed, row(d, m, 1.0, 100+m%4))
		}
	}
	ingestAndGroom(t, e, seed...)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for round := 0; round < 15; round++ {
			for d := int64(0); d < devices; d++ {
				if err := e.upsert(row(d, int64(round)%msgs, float64(round), 100+int64(round)%4)); err != nil {
					report(err)
					return
				}
			}
			if _, err := e.groomCount(); err != nil {
				report(err)
				return
			}
			if round%4 == 3 {
				if _, err := e.postGroom(); err != nil {
					report(err)
					return
				}
				if err := e.syncIndex(); err != nil {
					report(err)
					return
				}
			}
			if _, err := e.idx.MaintainOnce(); err != nil {
				report(err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200 || !stop.Load(); i++ {
				d := int64((r + i) % devices)
				m := int64(i % msgs)
				eq, sortv := key(d, m)
				_, found, err := getOn(e, "", eq, sortv, QueryOptions{})
				if err != nil {
					report(err)
					return
				}
				if !found {
					report(errNotFound{d, m})
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := e.idx.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

type errNotFound struct{ d, m int64 }

func (e errNotFound) Error() string {
	return "key vanished during concurrent maintenance"
}
