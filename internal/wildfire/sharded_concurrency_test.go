package wildfire

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"umzi/internal/core"
	"umzi/internal/keyenc"
	"umzi/internal/types"
)

// Concurrency tests for the sharding layer, modeled on
// internal/core/concurrency_test.go: ingest, lockstep grooming,
// post-grooming and index maintenance race against scatter-gather
// queries. Run with -race to exercise the memory model.

// TestShardedConcurrentIngestAndScatterGather hammers a msg-sharded
// table (every scan fans out to all shards and sort-merges) with
// concurrent writers, a maintenance driver and scan/lookup readers.
// Readers must never see a duplicated key, a wrong value or a
// non-monotonic merge order.
func TestShardedConcurrentIngestAndScatterGather(t *testing.T) {
	s := newTestShardedEngine(t, 4, func(c *ShardedConfig) { c.Table = msgShardedTable() })
	const devices, msgs = 4, 32
	value := func(dev, msg int64) float64 { return float64(dev*1000 + msg) }

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Writers: each owns a disjoint set of devices, writing every key
	// exactly once into the shards' committed logs.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for dev := int64(w); dev < devices; dev += 2 {
				for msg := int64(0); msg < msgs; msg++ {
					if err := s.UpsertRows(row(dev, msg, value(dev, msg), 100)); err != nil {
						report(err)
						return
					}
				}
			}
		}(w)
	}

	// Maintenance driver: the propagation owner's step (lockstep groom,
	// a post-groom every third step, evolve and reclaim), then a merge
	// pass, racing with writers and readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		writersDone := func() bool { return s.LiveCount() == 0 && allIngested(s, devices, msgs) }
		for i := 0; ; i++ {
			if err := s.propagate(i%3 == 2); err != nil {
				report(err)
				return
			}
			if _, err := s.MaintainOnce(); err != nil {
				report(err)
				return
			}
			if writersDone() {
				return
			}
		}
	}()

	// Readers: fan-out scans and batched lookups at MaxTS. A scan may
	// observe a prefix of the ingest, but never duplicates, out-of-order
	// results or wrong values.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				dev := int64((r + i) % devices)
				eq := []keyenc.Value{keyenc.I64(dev)}
				recs, err := tableScanOn(s, "", eq, nil, nil, QueryOptions{TS: types.MaxTS})
				if err != nil {
					report(err)
					return
				}
				last := int64(-1)
				for _, rec := range recs {
					msg := rec.Row[1].Int()
					if msg <= last {
						report(fmt.Errorf("merge order violated: msg %d after %d (dev %d)", msg, last, dev))
						return
					}
					last = msg
					if rec.Row[2].Float() != value(dev, msg) {
						report(fmt.Errorf("dev %d msg %d: value %v", dev, msg, rec.Row[2]))
						return
					}
				}
				// Batched lookups across all shards.
				var keys []core.LookupKey
				for m := int64(0); m < 8; m++ {
					keys = append(keys, core.LookupKey{
						Equality: []keyenc.Value{keyenc.I64(dev)},
						Sort:     []keyenc.Value{keyenc.I64((int64(i) + m) % msgs)},
					})
				}
				recs2, found, err := s.GetBatch(keys, QueryOptions{TS: types.MaxTS})
				if err != nil {
					report(err)
					return
				}
				for j := range keys {
					if found[j] && recs2[j].Row[2].Float() != value(dev, keys[j].Sort[0].Int()) {
						report(fmt.Errorf("batch dev %d msg %d: value %v", dev, keys[j].Sort[0].Int(), recs2[j].Row[2]))
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final state: every key visible exactly once with the right value.
	for dev := int64(0); dev < devices; dev++ {
		recs, err := tableScanOn(s, "", []keyenc.Value{keyenc.I64(dev)}, nil, nil, QueryOptions{TS: types.MaxTS})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != msgs {
			t.Fatalf("final scan dev %d: %d rows, want %d", dev, len(recs), msgs)
		}
		for i, rec := range recs {
			if rec.Row[1].Int() != int64(i) || rec.Row[2].Float() != value(dev, int64(i)) {
				t.Fatalf("final dev %d row %d = %v", dev, i, rec.Row)
			}
		}
	}
	for i := 0; i < s.NumShards(); i++ {
		if err := s.shards[i].idx.VerifyInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

// allIngested reports whether every expected key is visible at MaxTS.
func allIngested(s *ShardedEngine, devices, msgs int64) bool {
	for dev := int64(0); dev < devices; dev++ {
		recs, err := tableScanOn(s, "", []keyenc.Value{keyenc.I64(dev)}, nil, nil, QueryOptions{TS: types.MaxTS})
		if err != nil || int64(len(recs)) != msgs {
			return false
		}
	}
	return true
}

// TestShardedSnapshotStabilityUnderIngest verifies that a snapshot
// timestamp captured mid-ingest yields identical scatter-gather results
// on repeated reads while grooming keeps moving underneath — the
// cross-shard read-consistency contract of the sharding layer.
func TestShardedSnapshotStabilityUnderIngest(t *testing.T) {
	s := newTestShardedEngine(t, 4, func(c *ShardedConfig) { c.Table = msgShardedTable() })
	const devices, msgs = 3, 24

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
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
		for msg := int64(0); msg < msgs; msg++ {
			for dev := int64(0); dev < devices; dev++ {
				if err := s.UpsertRows(row(dev, msg, float64(dev), 100)); err != nil {
					report(err)
					return
				}
			}
			if _, err := s.groomCount(); err != nil {
				report(err)
				return
			}
			if msg%6 == 5 {
				if err := s.PostGroom(); err != nil {
					report(err)
					return
				}
				if err := s.SyncIndex(); err != nil {
					report(err)
					return
				}
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				ts := s.SnapshotTS()
				dev := int64(r) % devices
				eq := []keyenc.Value{keyenc.I64(dev)}
				first, err := tableScanOn(s, "", eq, nil, nil, QueryOptions{TS: ts})
				if err != nil {
					report(err)
					return
				}
				second, err := tableScanOn(s, "", eq, nil, nil, QueryOptions{TS: ts})
				if err != nil {
					report(err)
					return
				}
				if len(first) != len(second) {
					report(fmt.Errorf("snapshot %v unstable: %d then %d rows", ts, len(first), len(second)))
					return
				}
				for i := range first {
					if first[i].Row[1].Int() != second[i].Row[1].Int() || first[i].BeginTS != second[i].BeginTS {
						report(fmt.Errorf("snapshot %v unstable at row %d", ts, i))
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestShardedConcurrentTxns commits row batches spanning all shards
// from many goroutines while grooms run; every committed row must be
// durable and visible exactly once afterwards.
func TestShardedConcurrentTxns(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	const writers, perWriter = 4, 25

	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)
	var stop atomic.Bool

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Each commit touches several devices, hence several shards.
				rows := make([]Row, 0, 4)
				for dev := int64(0); dev < 4; dev++ {
					rows = append(rows, row(dev, int64(w*perWriter+i), float64(w), 100))
				}
				if err := s.Commit(context.Background(), rows); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	groomerDone := make(chan struct{})
	go func() {
		defer close(groomerDone)
		for !stop.Load() {
			if _, err := s.groomCount(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	<-groomerDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	for dev := int64(0); dev < 4; dev++ {
		recs, err := tableScanOn(s, "", []keyenc.Value{keyenc.I64(dev)}, nil, nil, QueryOptions{TS: types.MaxTS})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != writers*perWriter {
			t.Fatalf("dev %d: %d rows, want %d", dev, len(recs), writers*perWriter)
		}
	}
}
