package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
)

// ingestCycle builds one groom cycle's run without testing.T plumbing so
// it can run inside goroutines. Every cycle rewrites the same key space
// (devices × msgs), so any complete scan must return exactly msgs results
// per device.
func ingestCycle(ix *Index, c uint64, devices, msgs int) error {
	entries := make([]run.Entry, 0, devices*msgs)
	i := uint32(0)
	for dev := 0; dev < devices; dev++ {
		for msg := 0; msg < msgs; msg++ {
			e, err := ix.MakeEntry(
				[]keyenc.Value{keyenc.I64(int64(dev))},
				[]keyenc.Value{keyenc.I64(int64(msg))},
				[]keyenc.Value{keyenc.I64(int64(c))},
				types.MakeTS(c, i),
				types.RID{Zone: types.ZoneGroomed, Block: c, Offset: i},
			)
			if err != nil {
				return err
			}
			entries = append(entries, e)
			i++
		}
	}
	return ix.BuildRun(entries, types.BlockRange{Min: c, Max: c})
}

// evolveCycle migrates the newest version of every key as of groom cycle
// hi into the post-groomed zone for blocks [lo,hi].
func evolveCycle(ix *Index, psn types.PSN, lo, hi uint64, devices, msgs int) error {
	entries := make([]run.Entry, 0, devices*msgs)
	i := uint32(0)
	for dev := 0; dev < devices; dev++ {
		for msg := 0; msg < msgs; msg++ {
			// The newest version within [lo,hi] came from cycle hi.
			e, err := ix.MakeEntry(
				[]keyenc.Value{keyenc.I64(int64(dev))},
				[]keyenc.Value{keyenc.I64(int64(msg))},
				[]keyenc.Value{keyenc.I64(int64(hi))},
				types.MakeTS(hi, i),
				types.RID{Zone: types.ZonePostGroomed, Block: uint64(psn), Offset: i},
			)
			if err != nil {
				return err
			}
			entries = append(entries, e)
			i++
		}
	}
	return ix.Evolve(psn, entries, types.BlockRange{Min: lo, Max: hi})
}

// TestConcurrentReadersDuringMaintenance is the core §5.1 guarantee: with
// grooms, merges and evolves racing against readers, every query sees each
// key exactly once. Run with -race to exercise the memory model.
func TestConcurrentReadersDuringMaintenance(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) { c.K = 2; c.GroomedLevels = 3; c.PostGroomedLevels = 2 })
	const devices, msgs = 4, 10

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Writer: grooms plus periodic evolves. Evolve's simplification here —
	// migrating only the newest version per key — matches the evolve
	// contract because older versions within [lo,hi] are superseded for
	// any queryTS >= MakeTS(hi,0) and the readers query at MaxTS.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		psn := types.PSN(0)
		for c := uint64(1); c <= 40; c++ {
			if err := ingestCycle(ix, c, devices, msgs); err != nil {
				report(err)
				return
			}
			if c%4 == 0 {
				psn++
				if err := evolveCycle(ix, psn, c-3, c, devices, msgs); err != nil {
					report(err)
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Maintenance worker racing with the writer and readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := ix.MaintainOnce(); err != nil {
				report(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Readers: each scan must return exactly msgs de-duplicated keys per
	// device (or nothing before the first cycle lands).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for dev := int64(0); dev < devices; dev++ {
					got, err := ix.RangeScan(ScanOptions{
						Equality: []keyenc.Value{keyenc.I64(dev)},
						TS:       types.MaxTS,
					})
					if err != nil {
						report(err)
						return
					}
					seen := map[string]bool{}
					for _, e := range got {
						if seen[string(e.Key)] {
							report(fmt.Errorf("duplicate key in concurrent scan (dev %d)", dev))
							return
						}
						seen[string(e.Key)] = true
					}
					if len(got) != 0 && len(got) != msgs {
						report(fmt.Errorf("partial scan: %d results, want 0 or %d", len(got), msgs))
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := ix.VerifyInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, fmtRuns(ix))
	}
	// Final state must be fully correct.
	for dev := int64(0); dev < devices; dev++ {
		got, err := ix.RangeScan(ScanOptions{
			Equality: []keyenc.Value{keyenc.I64(dev)},
			TS:       types.MaxTS,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != msgs {
			t.Fatalf("final scan dev %d: %d results, want %d", dev, len(got), msgs)
		}
		for _, e := range got {
			_, _, incl, err := ix.DecodeEntry(e)
			if err != nil {
				t.Fatal(err)
			}
			if incl[0].Int() != 40 {
				t.Fatalf("final value %d, want 40 (newest cycle)", incl[0].Int())
			}
		}
	}
}

// TestConcurrentPointLookups hammers point lookups from many goroutines
// while maintenance runs, mirroring the Figure 12 workload shape.
func TestConcurrentPointLookups(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) { c.K = 2 })
	const devices, msgs = 8, 5
	for c := uint64(1); c <= 6; c++ {
		if err := ingestCycle(ix, c, devices, msgs); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var lookups atomic.Int64
	errCh := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for c := uint64(7); c <= 20; c++ {
			if err := ingestCycle(ix, c, devices, msgs); err != nil {
				errCh <- err
				return
			}
			if _, err := ix.MaintainOnce(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Keep reading while the writer runs, with a floor so the
			// test still exercises lookups if the writer wins the race.
			for i := 0; i < 300 || !stop.Load(); i++ {
				dev := int64((r + i) % devices)
				msg := int64(i % msgs)
				e, found, err := ix.PointLookup(
					[]keyenc.Value{keyenc.I64(dev)},
					[]keyenc.Value{keyenc.I64(msg)},
					types.MaxTS,
				)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				if !found {
					select {
					case errCh <- fmt.Errorf("key (%d,%d) vanished mid-maintenance", dev, msg):
					default:
					}
					return
				}
				_ = e
				lookups.Add(1)
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if lookups.Load() == 0 {
		t.Fatal("no lookups executed")
	}
}

// TestCloseTwice checks that Close is idempotent and that queries and
// maintenance issued after it fail or do nothing.
func TestCloseTwice(t *testing.T) {
	ix := newTestIndex(t, func(c *Config) { c.K = 2 })
	for c := uint64(1); c <= 4; c++ {
		if err := ingestCycle(ix, c, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is fine.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if did, err := ix.MaintainOnce(); did || err != nil {
		t.Fatalf("MaintainOnce after Close = %v, %v; want no work", did, err)
	}
	if err := ingestCycle(ix, 5, 2, 3); err == nil {
		t.Fatal("build after Close succeeded")
	}
}

// TestGCWaitsForReaders verifies the reference-counted deferred deletion:
// a run GC'd while a snapshot holds it keeps its storage object until the
// snapshot is released.
func TestGCWaitsForReaders(t *testing.T) {
	ix := newTestIndex(t, nil)
	if err := ingestCycle(ix, 1, 2, 4); err != nil {
		t.Fatal(err)
	}
	refs, release := ix.groomed.snapshot()
	if len(refs) != 1 {
		t.Fatal("expected one run")
	}
	name := refs[0].name

	// Evolve covers block 1, GC'ing the groomed run while we hold it.
	if err := evolveCycle(ix, 1, 1, 1, 2, 4); err != nil {
		t.Fatal(err)
	}
	g, _ := ix.RunCounts()
	if g != 0 {
		t.Fatalf("groomed list should be empty, has %d", g)
	}
	if _, err := ix.store.Size(name); err != nil {
		t.Fatal("object deleted while a reader still holds the run")
	}
	release()
	if _, err := ix.store.Size(name); err == nil {
		t.Fatal("object not deleted after last reader released")
	}
}
