package wildfire

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/storage"
)

// TestEngineMetricsFlow drives one engine through commit, groom and
// query and checks that the registry tells the same story the engine's
// own status APIs do.
func TestEngineMetricsFlow(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, func(cfg *ShardedConfig) { cfg.Obs = reg })
	const n = 10
	for i := int64(0); i < n; i++ {
		if err := e.upsert(row(1, i, float64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	lbl := obs.Labels{"table": "sensors"}
	snap := reg.Snapshot()
	if got := snap.Get("live_records", lbl).Value; got != n {
		t.Errorf("live_records = %d before groom, want %d", got, n)
	}
	if got := snap.Get("wal_rows", lbl).Value; got != n {
		t.Errorf("wal_rows = %d, want %d", got, n)
	}
	// Serial commits: one segment per commit, batch size exactly 1.
	wb := snap.Get("wal_batch_records", lbl).Hist
	if wb.Count != n || wb.Max != 1 || wb.P50 != 1 || wb.P99 != 1 {
		t.Errorf("wal_batch_records = %+v, want %d batches of 1", wb, n)
	}
	if lag := snap.Get("wal_watermark_lag", lbl).Value; lag != n {
		t.Errorf("wal_watermark_lag = %d before groom, want %d", lag, n)
	}

	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Get("groom_cycles", lbl).Value; got != 1 {
		t.Errorf("groom_cycles = %d, want 1", got)
	}
	if gr := snap.Get("groom_rows", lbl).Hist; gr.Count != 1 || gr.Sum != n {
		t.Errorf("groom_rows = %+v, want one cycle of %d rows", gr, n)
	}
	if fr := snap.Get("groom_freshness_ns", lbl).Hist; fr.Count != n || fr.Min <= 0 {
		t.Errorf("groom_freshness_ns = %+v, want %d positive samples", fr, n)
	}
	if got := snap.Get("live_records", lbl).Value; got != 0 {
		t.Errorf("live_records = %d after groom, want 0", got)
	}
	if lag := snap.Get("wal_watermark_lag", lbl).Value; lag != 0 {
		t.Errorf("wal_watermark_lag = %d after groom, want 0", lag)
	}
	if st := e.walStatus(); int64(st.MaxSeq-st.Mark) != snap.Get("wal_watermark_lag", lbl).Value {
		t.Errorf("gauge disagrees with WALStatus: %+v", st)
	}

	// A secondary scan back-checks every candidate against the primary;
	// the verification counter must move once per scanned entry.
	if err := e.createIndex(SecondaryIndexSpec{
		Name:      "by_day",
		IndexSpec: IndexSpec{Equality: []string{"day"}, HashBits: 4},
	}); err != nil {
		t.Fatal(err)
	}
	recs, err := scanOn(e, "by_day", []keyenc.Value{keyenc.I64(100)}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("secondary scan returned %d rows, want %d", len(recs), n)
	}
	snap = reg.Snapshot()
	if got := snap.Get("index_back_checks", lbl).Value; got != n {
		t.Errorf("index_back_checks = %d, want %d", got, n)
	}
}

// failingStore fails Puts whose names contain a substring while the
// fail flag is up — enough to break WAL segment writes selectively.
type failingStore struct {
	storage.ObjectStore
	substr string
	fail   atomic.Bool
}

func (f *failingStore) Put(name string, data []byte) error {
	if f.fail.Load() && strings.Contains(name, f.substr) {
		return errors.New("injected put failure")
	}
	return f.ObjectStore.Put(name, data)
}

// TestWALFlushErrorCounted checks the silent-error audit on the durable
// write path: under a buffered sync policy a size-triggered flush that
// fails must not fail the (already acknowledged) commits, but it must
// be counted — never silently dropped.
func TestWALFlushErrorCounted(t *testing.T) {
	reg := obs.NewRegistry()
	fs := &failingStore{
		ObjectStore: storage.NewMemStore(storage.LatencyModel{}),
		substr:      "/wal",
	}
	e := newTestEngine(t, func(cfg *ShardedConfig) {
		cfg.Obs = reg
		cfg.Store = fs
		cfg.Durability.SyncPolicy = SyncOff
		cfg.Durability.SegmentBytes = 64 // first commit overflows the buffer
	})
	fs.fail.Store(true)
	if err := e.upsert(row(1, 1, 1.0, 1), row(1, 2, 2.0, 1)); err != nil {
		t.Fatalf("buffered commit must not fail on a flush error: %v", err)
	}
	lbl := obs.Labels{"table": "sensors"}
	if got := reg.Snapshot().Get("wal_flush_errors", lbl).Value; got < 1 {
		t.Errorf("wal_flush_errors = %d, want >= 1", got)
	}
	// Let the retry (groom-time flush, close) succeed again.
	fs.fail.Store(false)
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
}

// keyedInt is one item of a synthetic shard stream, keyed by its value.
func keyedInt(v int) shardItem[int] {
	return shardItem[int]{val: v, key: []byte{byte(v >> 8), byte(v)}}
}

// TestScatterStreamReleaseErrorCounted checks the other audited path: a
// cancelled scatter worker closing its shard cursor counts the Close
// error AND surfaces the first one through the merged cursor's Close —
// the mid-stream-disconnect teardown the network server runs.
func TestScatterStreamReleaseErrorCounted(t *testing.T) {
	var released atomic.Int64
	open := func(ctx context.Context, shard int) (*Cursor[shardItem[int]], error) {
		v := shard * 1000
		return newCursor(
			func() (shardItem[int], bool, error) { v++; return keyedInt(v), true, nil }, // endless
			func() error { return errors.New("release failed") },
		), nil
	}
	onErr := func(err error) {
		if err != nil {
			released.Add(1)
		}
	}
	cur := scatterStream(context.Background(), newGatherPool(2), 2, 0, open, onErr)
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	err := cur.Close()
	if err == nil || !strings.Contains(err.Error(), "release failed") {
		t.Fatalf("merged close must surface the first release error, got %v", err)
	}
	// Close waited for both workers; both were cancelled mid-scan and
	// their cursor release errors must have been observed.
	if got := released.Load(); got != 2 {
		t.Errorf("release errors observed = %d, want 2", got)
	}
}

// TestScatterStreamReleaseCancelNoiseFiltered checks the filter on the
// surfaced release error: a shard cursor whose Close merely restates
// the cancellation (context.Canceled) is counted for the audit metric
// but does NOT turn an orderly early Close into a failure.
func TestScatterStreamReleaseCancelNoiseFiltered(t *testing.T) {
	var released atomic.Int64
	open := func(ctx context.Context, shard int) (*Cursor[shardItem[int]], error) {
		v := shard * 1000
		return newCursor(
			func() (shardItem[int], bool, error) { v++; return keyedInt(v), true, nil },
			func() error { return context.Canceled },
		), nil
	}
	onErr := func(err error) { released.Add(1) }
	cur := scatterStream(context.Background(), newGatherPool(2), 2, 0, open, onErr)
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cancellation-shaped release errors must not fail Close: %v", err)
	}
	if got := released.Load(); got != 2 {
		t.Errorf("release errors observed = %d, want 2", got)
	}
}

// benchEngine builds a 1-shard table for the overhead benchmark; noop
// swaps the metrics bundles for ones with nil handles (every record call
// is a nil-receiver no-op), isolating the cost of live instrumentation.
func benchEngine(b *testing.B, noop bool) *ShardedEngine {
	b.Helper()
	cfg := ShardedConfig{
		Table:  iotTable(),
		Index:  iotIndex(),
		Shards: 1,
		Store:  storage.NewMemStore(storage.LatencyModel{}),
	}
	cfg.IndexTuning.K = 2
	cfg.IndexTuning.GroomedLevels = 3
	cfg.IndexTuning.PostGroomedLevels = 2
	cfg.IndexTuning.BlockSize = 1024
	e, err := NewShardedEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if noop {
		e.mx = &engineMetrics{}
		e.shards[0].mx = e.mx
	}
	return e
}

// BenchmarkMetricsOverhead compares the instrumented hot paths against
// a no-op metrics bundle. The write path covers the WAL, live-zone and
// groom counters; the query path covers plan counters, per-row counting
// and trace-free cursor accounting. The instrumented variants must stay
// within ~5% of noop (CI's bench-smoke runs both for eyeballing).
func BenchmarkMetricsOverhead(b *testing.B) {
	for _, v := range []struct {
		name string
		noop bool
	}{{"write/instrumented", false}, {"write/noop", true}} {
		b.Run(v.name, func(b *testing.B) {
			e := benchEngine(b, v.noop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.UpsertRows(row(1, int64(i), 1.0, 1)); err != nil {
					b.Fatal(err)
				}
				if i%4096 == 4095 {
					if err := e.Groom(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	for _, v := range []struct {
		name string
		noop bool
	}{{"query/instrumented", false}, {"query/noop", true}} {
		b.Run(v.name, func(b *testing.B) {
			e := benchEngine(b, v.noop)
			for i := int64(0); i < 512; i++ {
				if err := e.UpsertRows(row(1, i, 1.0, 1)); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Groom(); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := e.RunQuery(ctx, QuerySpec{
					Filter: nil, Columns: []string{"device", "msg"}, Limit: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				for rows.Cursor.Next() {
				}
				if err := rows.Cursor.Err(); err != nil {
					b.Fatal(err)
				}
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
