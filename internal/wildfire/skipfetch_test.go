package wildfire

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/storage"
)

// Skipping before the fetch: a post block whose synopsis the zone
// version holds is classified from it, and a block it excludes is never
// fetched. These tests pin that the skip really saves the fetch, and
// that after a reopen the synopsis fills on a block's first fetch.

var errGetFailed = errors.New("injected get failure")

// failGets is an ObjectStore that fails every Get of one object; every
// other call goes through.
type failGets struct {
	storage.ObjectStore
	name string
}

func (s *failGets) Get(name string) ([]byte, error) {
	if name == s.name {
		return nil, errGetFailed
	}
	return s.ObjectStore.Get(name)
}

// msgBatch returns one row per device for each msg in [lo, lo+n).
func msgBatch(lo, n int64) []Row {
	var rows []Row
	for m := lo; m < lo+n; m++ {
		for dev := int64(0); dev < 3; dev++ {
			rows = append(rows, row(dev, m, float64(dev*1000+m), 100))
		}
	}
	return rows
}

// msgAtLeast is the plan and reference filter both tests aggregate
// with: rows with msg >= 100, grouped by device.
var msgAtLeast = exec.Plan{
	Filter:  exec.Ge("msg", keyenc.I64(100)),
	GroupBy: []string{"device"},
	Aggs:    []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}},
}

func msgAtLeastRef(r Row) bool { return r[1].Int() >= 100 }

// tracedExec runs p on e and checks its rows against the reference over
// visible; it returns the trace.
func tracedExec(t *testing.T, e *shard, p exec.Plan, rf refFilter, visible []Row, label string) obs.TraceSnapshot {
	t.Helper()
	tr := obs.NewQueryTrace()
	got, err := execute(e, p, QueryOptions{Trace: tr})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	compareRows(t, label, p, got.Rows, naiveExecute(e.table, p, rf, visible))
	return tr.Snapshot()
}

// TestSynopsisSkippedBlockNeverFetched: every Get of the post block
// holding msgs 0..19 fails, and the block cache is too small to keep it.
// An aggregate over msg >= 100 still returns the reference rows, because
// the block's synopsis in the zone version excludes it before any fetch;
// an unfiltered COUNT(*) reads the block and returns the injected error,
// which proves the failure was armed.
func TestSynopsisSkippedBlockNeverFetched(t *testing.T) {
	store := &failGets{ObjectStore: storage.NewMemStore(storage.LatencyModel{})}
	e := newTestEngine(t, func(cfg *ShardedConfig) {
		cfg.Store = store
		cfg.BlockCacheBytes = 1
	})
	model := map[string]Row{}
	ingest := func(rows []Row, post bool) {
		t.Helper()
		ingestAndGroom(t, e, rows...)
		for _, r := range rows {
			model[e.table.pkEncoding(r)] = r
		}
		if !post {
			return
		}
		if _, err := e.postGroom(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(msgBatch(0, 20), true)
	old := e.zone.Load().post
	if len(old) != 1 {
		t.Fatalf("setup: first post-groom wrote %d blocks, want 1", len(old))
	}
	ingest(msgBatch(100, 20), true)
	ingest(msgBatch(200, 5), false)
	v := e.zone.Load()
	store.name = postBlockName(e.table.Name, old[0].id)

	s := tracedExec(t, e, msgAtLeast, msgAtLeastRef, modelRows(model), "msg >= 100")
	all := int64(len(v.pending) + len(v.post))
	if s.BlocksSkipped != 1 || s.BlocksFetched != all-1 {
		t.Errorf("trace: %d skipped, %d fetched of %d blocks; want 1 skipped, %d fetched", s.BlocksSkipped, s.BlocksFetched, all, all-1)
	}
	_, err := execute(e, exec.Plan{Aggs: []exec.Agg{{Func: exec.Count}}}, QueryOptions{})
	if !errors.Is(err, errGetFailed) {
		t.Fatalf("unfiltered COUNT(*) = %v, want the injected Get failure", err)
	}
}

// reopenedEngine writes three msg batches of 20 — two post-groomed, the
// last left pending — closes the engine and reopens it over the same
// store. excluded counts the post blocks of the first batch, which hold
// only msgs below 100.
func reopenedEngine(t *testing.T) (e *shard, model map[string]Row, excluded int64) {
	t.Helper()
	cfg := ShardedConfig{
		Table: iotTable(),
		Index: iotIndex(),
		Store: storage.NewMemStore(storage.LatencyModel{}),
	}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model = map[string]Row{}
	for i, lo := range []int64{0, 100, 200} {
		rows := msgBatch(lo, 20)
		ingestAndGroom(t, e, rows...)
		for _, r := range rows {
			model[e.table.pkEncoding(r)] = r
		}
		if i == 2 {
			break // the last batch stays pending
		}
		if _, err := e.postGroom(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			excluded = int64(len(e.zone.Load().post))
		}
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}

	if e, err = openShard(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.close() })
	v := e.zone.Load()
	for _, pb := range v.post {
		if pb.syn.Load() != nil {
			t.Fatalf("recovered post block %d already has a synopsis", pb.id)
		}
	}
	if len(v.pending) == 0 || excluded == 0 || int64(len(v.post)) <= excluded {
		t.Fatalf("setup: %d pending and %d post blocks, %d excluded", len(v.pending), len(v.post), excluded)
	}
	return e, model, excluded
}

// TestSynopsisFillsOnFirstFetch: a reopened engine recovers its post
// blocks without synopses, so the first filtered aggregate fetches every
// block of the version; the second fetches only the pending blocks and
// the post blocks the synopses admit. Both return the reference rows.
func TestSynopsisFillsOnFirstFetch(t *testing.T) {
	e, model, excluded := reopenedEngine(t)
	v := e.zone.Load()
	all := int64(len(v.pending) + len(v.post))
	for i, want := range []int64{all, all - excluded} {
		s := tracedExec(t, e, msgAtLeast, msgAtLeastRef, modelRows(model), fmt.Sprintf("aggregate %d", i+1))
		if s.BlocksFetched != want || s.BlocksSkipped != excluded {
			t.Errorf("aggregate %d: %d fetched, %d skipped; want %d fetched, %d skipped", i+1, s.BlocksFetched, s.BlocksSkipped, want, excluded)
		}
	}
}

// TestSynopsisFillConcurrent: concurrent first aggregates after a reopen
// race to fill the same synopses. Each returns the reference rows, and
// afterwards every post block has a synopsis that skips the first batch.
func TestSynopsisFillConcurrent(t *testing.T) {
	e, model, excluded := reopenedEngine(t)
	want := naiveExecute(e.table, msgAtLeast, msgAtLeastRef, modelRows(model))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := execute(e, msgAtLeast, QueryOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want) {
				t.Errorf("concurrent aggregate = %v, want %v", got.Rows, want)
			}
		}()
	}
	wg.Wait()
	for _, pb := range e.zone.Load().post {
		if pb.syn.Load() == nil {
			t.Fatalf("post block %d has no synopsis after its fetch", pb.id)
		}
	}
	s := tracedExec(t, e, msgAtLeast, msgAtLeastRef, modelRows(model), "after the fill")
	if v := e.zone.Load(); s.BlocksFetched != int64(len(v.pending)+len(v.post))-excluded {
		t.Errorf("after the fill: %d fetched, want %d", s.BlocksFetched, int64(len(v.pending)+len(v.post))-excluded)
	}
}
