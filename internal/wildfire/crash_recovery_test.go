package wildfire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
	"umzi/internal/wal"
)

// Crash-recovery suite for the durable write path: commits append to the
// per-shard commit log before they are acknowledged, so a crash — the
// engine dropped without Close, at an arbitrary point between commit,
// groom and run build — must lose zero acknowledged rows under the
// per-commit sync policy. The property test drives randomized ingest
// with injected write failures against an in-memory oracle; the
// concurrent variant runs under -race with writers mid-flight at the
// crash. Set UMZI_FSYNC=1 to run the property test against a
// filesystem store with fsync enabled (the CI durability tier).

// The injected-failure store lives in internal/storage (FaultStore): it
// passes reads through and fails every write once a budget is
// exhausted, simulating a crash cut at an arbitrary storage write. The
// umzi-workload crash scenarios drive the same hook.

// crashBackend returns the underlying durable store: in-memory by
// default, a filesystem store with fsync when UMZI_FSYNC is set.
func crashBackend(t *testing.T, name string) storage.ObjectStore {
	t.Helper()
	if os.Getenv("UMZI_FSYNC") == "" {
		return storage.NewMemStore(storage.LatencyModel{})
	}
	fs, err := storage.NewFSStore(filepath.Join(t.TempDir(), name), storage.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFsync(true)
	return fs
}

// verifyOracle checks scan and point-get equivalence between the engine
// and the oracle (pk encoding -> freshest acknowledged row).
func verifyOracle(t *testing.T, e *shard, oracle map[string]Row) {
	t.Helper()
	opts := QueryOptions{TS: types.MaxTS, IncludeLive: true}

	// Scan equivalence through the executor's full-table row plan (it
	// unions every zone and reconciles per key).
	res, err := execute(e, exec.Plan{}, opts)
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	got := make(map[string]Row, len(res.Rows))
	for _, r := range res.Rows {
		got[e.table.pkEncoding(Row(r))] = Row(r)
	}
	for pk, want := range oracle {
		have, ok := got[pk]
		if !ok {
			t.Fatalf("acknowledged row %x lost after recovery", pk)
		}
		for c := range want {
			if keyenc.Compare(have[c], want[c]) != 0 {
				t.Fatalf("row %x column %d = %v, want %v", pk, c, have[c], want[c])
			}
		}
	}
	for pk := range got {
		if _, ok := oracle[pk]; !ok {
			t.Fatalf("scan surfaced unacknowledged row %x", pk)
		}
	}

	// Point-get equivalence on every oracle key plus a missing key.
	for _, want := range oracle {
		eq := []keyenc.Value{want[0]}
		sortv := []keyenc.Value{want[1]}
		rec, found, err := getOn(e, "", eq, sortv, opts)
		if err != nil || !found {
			t.Fatalf("point get (%v,%v): found=%v err=%v", want[0], want[1], found, err)
		}
		for c := range want {
			if keyenc.Compare(rec.Row[c], want[c]) != 0 {
				t.Fatalf("point get (%v,%v) column %d = %v, want %v", want[0], want[1], c, rec.Row[c], want[c])
			}
		}
	}
	if _, found, err := getOn(e, "", []keyenc.Value{keyenc.I64(1 << 40)}, []keyenc.Value{keyenc.I64(1)}, opts); err != nil || found {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}
}

// TestCrashRecoveryProperty drives randomized ingest/groom/post-groom
// cycles with write failures injected at random storage-write budgets,
// "crashes" (drops the engine without Close), reopens, and asserts
// scan/point-get equivalence against the oracle: with SyncPerCommit no
// acknowledged row is ever lost, and no unacknowledged row surfaces.
func TestCrashRecoveryProperty(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			backend := crashBackend(t, fmt.Sprintf("prop-%d", seed))
			cs := storage.NewFaultStore(backend, 0)
			cfg := ShardedConfig{
				Table: iotTable(),
				Index: iotIndex(),
				Store: cs,
				// Tiny segments so lifetimes span several of them.
				Durability: DurabilityOptions{SyncPolicy: SyncPerCommit, SegmentBytes: 256},
			}
			cfg.IndexTuning.BlockSize = 1024
			// Merge early, so merged groomed runs — which live in memory
			// only — exist when a lifetime crashes.
			cfg.IndexTuning.K = 2

			oracle := map[string]Row{} // pk encoding -> freshest acked row
			def := cfg.Table

			lifetimes := 6
			for life := 0; life < lifetimes; life++ {
				cs.Revive(rng.Int63n(60) + 5)
				e, err := openShard(cfg)
				if err != nil {
					if errors.Is(err, storage.ErrInjectedFault) {
						continue // crashed during recovery; next lifetime retries
					}
					t.Fatalf("lifetime %d: reopen: %v", life, err)
				}
				crashed := false
				for op := 0; op < 30 && !crashed; op++ {
					switch r := rng.Intn(10); {
					case r < 6: // upsert batch (one transaction)
						n := rng.Intn(4) + 1
						rows := make([]Row, n)
						for i := range rows {
							rows[i] = row(rng.Int63n(4), rng.Int63n(16), rng.Float64()*100, rng.Int63n(3))
						}
						if err := e.upsert(rows...); err != nil {
							crashed = true
							break
						}
						// One commit: all rows acked atomically, in
						// batch order (later rows overwrite earlier
						// ones of the same key).
						for _, r := range rows {
							oracle[def.pkEncoding(r)] = r
						}
					case r < 8:
						if _, err := e.groomCount(); err != nil {
							crashed = true
						} else if _, err := e.maintainOnce(); err != nil {
							crashed = true
						}
					case r < 9:
						if _, err := e.postGroom(); err != nil {
							crashed = true
						}
					default:
						if err := e.syncIndex(); err != nil {
							crashed = true
						}
					}
				}
				if !crashed && rng.Intn(3) == 0 {
					// Occasionally shut down cleanly so recovery also
					// exercises the clean-marker fast path.
					cs.Revive(1 << 50)
					if err := e.close(); err != nil {
						t.Fatalf("lifetime %d: clean close: %v", life, err)
					}
					continue
				}
				// Crash: drop the engine without Close.
				_ = e
			}

			// Final reopen with unbounded storage: full equivalence, then
			// quiesce and check the log is bounded.
			cs.Revive(1 << 50)
			e, err := openShard(cfg)
			if err != nil {
				t.Fatalf("final reopen: %v", err)
			}
			defer e.close()
			verifyOracle(t, e, oracle)

			sentinel := row(3, 15, 1.5, 0)
			if err := e.upsert(sentinel); err != nil {
				t.Fatal(err)
			}
			oracle[def.pkEncoding(sentinel)] = sentinel
			if _, err := e.groomCount(); err != nil {
				t.Fatal(err)
			}
			st := e.walStatus()
			if st.Mark != st.MaxSeq {
				t.Fatalf("after quiescing groom: mark %d != max commit seq %d", st.Mark, st.MaxSeq)
			}
			if st.Segments != 0 {
				t.Fatalf("fully-groomed log still holds %d segments (%d bytes): reclamation leaks", st.Segments, st.SegmentBytes)
			}
			verifyOracle(t, e, oracle)
		})
	}
}

// TestCrashRecoveryConcurrent crashes the store while concurrent
// writers and groomers are mid-flight (run under -race in CI): after
// reopening, every acknowledged row must be present and every surfaced
// row must have been attempted.
func TestCrashRecoveryConcurrent(t *testing.T) {
	backend := crashBackend(t, "concurrent")
	cs := storage.NewFaultStore(backend, 0)
	cfg := ShardedConfig{
		Table:      iotTable(),
		Index:      iotIndex(),
		Store:      cs,
		Durability: DurabilityOptions{SyncPolicy: SyncPerCommit, SegmentBytes: 512},
	}
	cfg.IndexTuning.BlockSize = 1024
	cfg.IndexTuning.K = 2
	cs.Revive(400)
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	acked := make([]map[string]Row, writers)
	attempted := make([]map[string]Row, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		acked[w] = map[string]Row{}
		attempted[w] = map[string]Row{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Disjoint device per writer: no cross-writer overwrites, so
			// each writer's acked set must survive verbatim.
			for msg := int64(0); ; msg++ {
				r := row(int64(w), msg, rng.Float64()*10, msg%3)
				attempted[w][cfg.Table.pkEncoding(r)] = r
				if err := e.upsert(r); err != nil {
					return // crash reached this writer
				}
				acked[w][cfg.Table.pkEncoding(r)] = r
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			// Two grooms and a merge pass per post-groom: the crash finds
			// merged groomed runs that exist in memory only.
			for i := 0; i < 2; i++ {
				if _, err := e.groomCount(); err != nil {
					return
				}
				if _, err := e.maintainOnce(); err != nil {
					return
				}
			}
			if _, err := e.postGroom(); err != nil {
				return
			}
			if err := e.syncIndex(); err != nil {
				return
			}
		}
	}()
	wg.Wait()
	// Crash: drop the engine without Close and reopen on the survivors.
	cs.Revive(1 << 50)
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.close()

	opts := QueryOptions{TS: types.MaxTS, IncludeLive: true}
	for w := 0; w < writers; w++ {
		for pk, want := range acked[w] {
			rec, found, err := getOn(e2, "", []keyenc.Value{want[0]}, []keyenc.Value{want[1]}, opts)
			if err != nil || !found {
				t.Fatalf("writer %d: acked row %x lost (found=%v err=%v)", w, pk, found, err)
			}
			if keyenc.Compare(rec.Row[2], want[2]) != 0 {
				t.Fatalf("writer %d: row %x reads %v, want %v", w, pk, rec.Row[2], want[2])
			}
		}
	}
	// Scan: everything surfaced must at least have been attempted (a
	// commit the crash cut between log append and acknowledgment may
	// legitimately survive).
	res, err := execute(e2, exec.Plan{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		w := int(Row(r)[0].Int())
		if w < 0 || w >= writers {
			t.Fatalf("scan surfaced row for unknown writer %d", w)
		}
		if _, ok := attempted[w][cfg.Table.pkEncoding(Row(r))]; !ok {
			t.Fatalf("scan surfaced row %v that writer %d never attempted", Row(r), w)
		}
	}
}

// TestRecoveryReplaysLiveTail is the deterministic core of the story: a
// crash (no Close) immediately after Commit returns loses zero
// acknowledged rows under SyncPerCommit — the live zone is rebuilt from
// the log tail.
func TestRecoveryReplaysLiveTail(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{Table: iotTable(), Index: iotIndex(), Store: store}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Some rows groomed, some only committed.
	if err := e.upsert(row(1, 1, 10, 0), row(1, 2, 11, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 3, 12, 0), row(2, 1, 13, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 2, 99, 0)); err != nil { // overwrite a groomed key
		t.Fatal(err)
	}
	// Crash without Close.
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	if got := e2.liveCount(); got != 3 {
		t.Fatalf("replayed live zone holds %d records, want 3", got)
	}
	opts := QueryOptions{TS: types.MaxTS, IncludeLive: true}
	expect := map[[2]int64]float64{{1, 1}: 10, {1, 2}: 99, {1, 3}: 12, {2, 1}: 13}
	for k, want := range expect {
		eq, sortv := key(k[0], k[1])
		rec, found, err := getOn(e2, "", eq, sortv, opts)
		if err != nil || !found {
			t.Fatalf("key %v: found=%v err=%v", k, found, err)
		}
		if rec.Row[2].Float() != want {
			t.Fatalf("key %v reads %v, want %v", k, rec.Row[2], want)
		}
	}
	// The tail grooms normally after recovery and the log drains.
	if _, err := e2.groomCount(); err != nil {
		t.Fatal(err)
	}
	st := e2.walStatus()
	if st.Mark != st.MaxSeq || st.Segments != 0 {
		t.Fatalf("after groom: mark=%d maxSeq=%d segments=%d, want drained log", st.Mark, st.MaxSeq, st.Segments)
	}
}

// TestRecoveryReplaysReplicaOneRecords: commit logs written while a
// shard had several in-memory logs carry a non-zero wal.Record.Replica.
// Replay ignores the field: such a record's rows come back live after a
// crash, groom exactly once, and do not replay again.
func TestRecoveryReplaysReplicaOneRecords(t *testing.T) {
	store := crashBackend(t, "replica-one")
	cfg := ShardedConfig{Table: iotTable(), Index: iotIndex(), Store: store}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 1, 10, 0)); err != nil {
		t.Fatal(err)
	}
	old := []Row{row(1, 2, 11, 0), row(2, 1, 12, 0)}
	n := uint64(len(old))
	rec := wal.Record{Table: e.table.Name, Replica: 1, Base: e.commitSeq.Add(n) - n + 1, CommitTS: 1}
	for _, r := range old {
		rec.Rows = append(rec.Rows, keyenc.AppendComposite(nil, r...))
	}
	if err := e.wal.Commit(rec); err != nil {
		t.Fatal(err)
	}
	// Crash without Close.
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.liveCount(); got != 3 {
		t.Fatalf("replayed live zone holds %d records, want 3", got)
	}
	expect := map[[2]int64]float64{{1, 1}: 10, {1, 2}: 11, {2, 1}: 12}
	check := func(stage string, e *shard, opts QueryOptions, groomed int) {
		t.Helper()
		for k, want := range expect {
			eq, sortv := key(k[0], k[1])
			rec, found, err := getOn(e, "", eq, sortv, opts)
			if err != nil || !found || rec.Row[2].Float() != want {
				t.Fatalf("%s: key %v reads %v found=%v (err %v), want %v", stage, k, rec.Row, found, err, want)
			}
		}
		// Exactly once: the groomed blocks hold one version per row.
		rows := 0
		for _, id := range e.zone.Load().pending {
			blk, err := e.fetchBlock(context.Background(), groomedBlockName(e.table.Name, id))
			if err != nil {
				t.Fatal(err)
			}
			rows += blk.NumRows()
		}
		if rows != groomed {
			t.Fatalf("%s: groomed blocks hold %d rows, want %d", stage, rows, groomed)
		}
	}
	check("live", e2, QueryOptions{TS: types.MaxTS, IncludeLive: true}, 0)
	if n, err := e2.groomCount(); err != nil || n != 3 {
		t.Fatalf("groomed %d records (err %v), want 3", n, err)
	}
	if n, err := e2.groomCount(); err != nil || n != 0 {
		t.Fatalf("second groom took %d records (err %v), want 0", n, err)
	}
	check("groomed", e2, QueryOptions{}, 3)
	// Crash again: the groomed sequences are below the watermark and do
	// not come back live.
	e3, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.close()
	if got := e3.liveCount(); got != 0 {
		t.Fatalf("groomed records replayed again: live=%d, want 0", got)
	}
	check("groomed after reopen", e3, QueryOptions{}, 3)
}

// TestRecoveryCleanShutdown checks the Close contract: buffered batches
// are flushed, the clean-shutdown marker is written (and consumed on
// the next open), Close after Close is a no-op, and a SyncOff tail that
// was only buffered survives because Close flushed it.
func TestRecoveryCleanShutdown(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{
		Table: iotTable(), Index: iotIndex(), Store: store,
		Durability: DurabilityOptions{SyncPolicy: SyncOff, SegmentBytes: 1 << 20},
	}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 1, 10, 0), row(1, 2, 11, 0)); err != nil {
		t.Fatal(err)
	}
	if st := e.walStatus(); st.Segments != 0 {
		t.Fatalf("SyncOff flushed %d segments before Close", st.Segments)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	if err := e.close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
	if _, err := store.Get(walCleanName(cfg.Table.Name)); err != nil {
		t.Fatalf("clean-shutdown marker missing: %v", err)
	}
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	if _, err := store.Get(walCleanName(cfg.Table.Name)); err == nil {
		t.Fatal("clean-shutdown marker not consumed on open")
	}
	if got := e2.liveCount(); got != 2 {
		t.Fatalf("flushed SyncOff tail lost: live=%d, want 2", got)
	}
}

// TestRecoveryCleanShutdownSkipsReplay: a quiesced Close (everything
// groomed) lets the next open skip reading log segments entirely.
func TestRecoveryCleanShutdownSkipsReplay(t *testing.T) {
	mem := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{Table: iotTable(), Index: iotIndex(), Store: mem}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 1, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	reads := mem.Stats().Snapshot().Reads
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	if e2.liveCount() != 0 {
		t.Fatalf("quiesced reopen rebuilt %d live records", e2.liveCount())
	}
	// The log was fully reclaimed at groom time, so the clean path reads
	// no segment objects; this stays true if a segment listing sneaks
	// back in (cheap) but full segment Gets would show up here.
	if got := mem.Stats().Snapshot().Reads - reads; got > 30 {
		t.Fatalf("clean reopen performed %d storage reads (replay not skipped?)", got)
	}
}

// TestRecoverySyncOffLosesOnlyTail documents the SyncOff contract: a
// crash loses at most the buffered tail — everything since the last
// segment flush or groom — and never corrupts recovered state.
func TestRecoverySyncOffLosesOnlyTail(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{
		Table: iotTable(), Index: iotIndex(), Store: store,
		Durability: DurabilityOptions{SyncPolicy: SyncOff, SegmentBytes: 1 << 20},
	}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 1, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil { // durable via the groomed block
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 2, 11, 0)); err != nil { // buffered only
		t.Fatal(err)
	}
	// Crash without Close: the buffered row is gone, the groomed one is
	// not.
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	if got := e2.liveCount(); got != 0 {
		t.Fatalf("SyncOff crash recovered %d buffered records, want 0", got)
	}
	eq, sortv := key(1, 1)
	if _, found, err := getOn(e2, "", eq, sortv, QueryOptions{}); err != nil || !found {
		t.Fatalf("groomed row lost: found=%v err=%v", found, err)
	}
}

// TestShardedCrashRecovery: every shard replays its own log; lockstep
// clocks realign and acknowledged rows on every shard survive a
// whole-process crash.
func TestShardedCrashRecovery(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{
		Table:      iotTable(),
		Index:      iotIndex(),
		Shards:     4,
		Store:      store,
		Durability: DurabilityOptions{SyncPolicy: SyncPerCommit},
	}
	cfg.IndexTuning.BlockSize = 1024
	cfg.IndexTuning.K = 2
	s, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const devices, msgs = 8, 6
	for dev := int64(0); dev < devices; dev++ {
		for msg := int64(0); msg < msgs; msg++ {
			if err := s.UpsertRows(row(dev, msg, float64(dev*100+msg), 0)); err != nil {
				t.Fatal(err)
			}
		}
		if dev <= devices/2 {
			// Half the data grooms — and merges into runs that live in
			// memory only; the rest stays in the log tails.
			if err := s.Groom(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.MaintainOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash without Close.
	s2, err := NewShardedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	opts := QueryOptions{TS: types.MaxTS, IncludeLive: true}
	for dev := int64(0); dev < devices; dev++ {
		for msg := int64(0); msg < msgs; msg++ {
			eq, sortv := key(dev, msg)
			rec, found, err := tableGetOn(s2, "", eq, sortv, opts)
			if err != nil || !found {
				t.Fatalf("dev %d msg %d: found=%v err=%v", dev, msg, found, err)
			}
			if rec.Row[2].Float() != float64(dev*100+msg) {
				t.Fatalf("dev %d msg %d reads %v", dev, msg, rec.Row[2])
			}
		}
	}
	// Grooming drains every shard's log.
	if err := s2.Groom(); err != nil {
		t.Fatal(err)
	}
	for i, st := range s2.WALStatus() {
		if st.Mark != st.MaxSeq || st.Segments != 0 {
			t.Fatalf("shard %d after groom: mark=%d maxSeq=%d segments=%d", i, st.Mark, st.MaxSeq, st.Segments)
		}
	}
}

// failPSNMetaPut passes every call through to the store, except that
// the first PSN-meta Put after arm() fails before reaching it.
type failPSNMetaPut struct {
	storage.ObjectStore
	armed bool
}

func (s *failPSNMetaPut) arm() { s.armed = true }

func (s *failPSNMetaPut) Put(name string, data []byte) error {
	if s.armed && strings.Contains(name, "/psn/") {
		s.armed = false
		return storage.ErrInjectedFault
	}
	return s.ObjectStore.Put(name, data)
}

// TestPostGroomRetryRecovery: a post-groom that fails between its endTS
// sidecar Put and its PSN meta Put leaves a sidecar under a PSN no zone
// version references. The retry reuses that PSN and must replace the
// leftover rather than wedge on the write-once name, both in the same
// lifetime and after a crash; recovery must ignore the leftover.
func TestPostGroomRetryRecovery(t *testing.T) {
	fs := &failPSNMetaPut{ObjectStore: crashBackend(t, "postgroom-retry")}
	cfg := ShardedConfig{Table: iotTable(), Index: iotIndex(), Store: fs}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]Row{}
	commit := func(e *shard, v float64) {
		t.Helper()
		rows := []Row{row(1, 1, v, 100), row(1, 2, v, 100), row(2, 1, v, 101)}
		if err := e.upsert(rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			oracle[cfg.Table.pkEncoding(r)] = r
		}
	}
	postGroom := func(e *shard) {
		t.Helper()
		if _, err := e.postGroom(); err != nil {
			t.Fatal(err)
		}
		if err := e.syncIndex(); err != nil {
			t.Fatal(err)
		}
	}
	// failPostGroom updates the post-groomed keys, so the post-groom
	// writes a sidecar, and fails its PSN meta Put.
	failPostGroom := func(e *shard, v float64) {
		t.Helper()
		commit(e, v)
		fs.arm()
		if _, err := e.postGroom(); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("post-groom with a failing PSN meta Put: err = %v", err)
		}
		if names, _ := fs.List("tbl/" + cfg.Table.Name + "/endts/"); len(names) == 0 {
			t.Fatal("setup: the failed post-groom wrote no sidecar")
		}
	}

	commit(e, 1)
	postGroom(e)
	failPostGroom(e, 2)
	postGroom(e) // the retry in the same lifetime
	verifyOracle(t, e, oracle)

	failPostGroom(e, 3)
	// Crash: drop the engine without Close, with the leftover sidecar of
	// the failed post-groom above the recovered maxPSN.
	e, err = openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.close() }()
	verifyOracle(t, e, oracle)
	// Recovery ignored the leftover: the newest post-groomed version of
	// a key it overrode is still current.
	eq, sortv := key(1, 1)
	ent, found, err := e.idx.PointLookupPostGroomed(eq, sortv, types.MaxTS)
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if rec, err := e.fetch(context.Background(), ent.RID); err != nil || rec.EndTS != types.MaxTS {
		t.Fatalf("newest post-groomed version: endTS = %v, err = %v; want MaxTS", rec.EndTS, err)
	}
	postGroom(e) // the retry after recovery
	verifyOracle(t, e, oracle)
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	if e, err = openShard(cfg); err != nil {
		t.Fatal(err)
	}
	verifyOracle(t, e, oracle)
}
