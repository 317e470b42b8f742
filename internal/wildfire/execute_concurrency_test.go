package wildfire

import (
	"sync"
	"sync/atomic"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
)

// TestExecuteConcurrentWithMaintenance races analytical queries against
// ingest, lockstep grooming, post-grooming and index maintenance on a
// 4-shard engine. The invariant under test is the executor's zone
// snapshot: however a query interleaves with a post-groom — which moves
// records from pending groomed blocks into post-groomed blocks — it
// must see every key exactly once (COUNT never exceeds the key space,
// and per-device counts never exceed the per-device key space). Run
// with -race to exercise the memory model.
func TestExecuteConcurrentWithMaintenance(t *testing.T) {
	s := newTestShardedEngine(t, 4, nil)
	const devices, msgs = 4, 24

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Writer: every key exactly once, then repeated updates (same key
	// space, new readings) so queries race with version churn too.
	var workers sync.WaitGroup
	workers.Add(1)
	go func() {
		defer workers.Done()
		for pass := 0; pass < 3 && !stop.Load(); pass++ {
			for dev := int64(0); dev < devices; dev++ {
				for msg := int64(0); msg < msgs; msg++ {
					if err := s.UpsertRows(row(dev, msg, float64(pass*1000), 100)); err != nil {
						report(err)
						return
					}
				}
			}
		}
	}()

	// Maintenance: lockstep grooms with periodic post-grooms + sync.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := s.Groom(); err != nil {
				report(err)
				return
			}
			if i%3 == 2 {
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

	countPlan := exec.Plan{Aggs: []exec.Agg{{Func: exec.Count}}}
	perDevice := exec.Plan{
		Filter:  exec.Lt("device", keyenc.I64(devices)),
		GroupBy: []string{"device"},
		Aggs:    []exec.Agg{{Func: exec.Count}, {Func: exec.Max, Col: "msg"}},
	}
	for r := 0; r < 3; r++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 200 && !stop.Load(); i++ {
				opts := QueryOptions{IncludeLive: i%2 == 0}
				res, err := tableExecute(s, countPlan, opts)
				if err != nil {
					report(err)
					return
				}
				if len(res.Rows) > 0 && res.Rows[0][0].Int() > devices*msgs {
					t.Errorf("COUNT saw %d rows, key space is %d (duplicated version)",
						res.Rows[0][0].Int(), devices*msgs)
					return
				}
				grouped, err := tableExecute(s, perDevice, opts)
				if err != nil {
					report(err)
					return
				}
				for _, g := range grouped.Rows {
					if g[1].Int() > msgs {
						t.Errorf("device %v: %d rows, key space is %d", g[0], g[1].Int(), msgs)
						return
					}
					if g[2].Int() >= msgs {
						t.Errorf("device %v: max msg %d out of range", g[0], g[2].Int())
						return
					}
				}
			}
		}()
	}

	// The writer and readers run to completion; the maintenance loop
	// stops once they are done.
	workers.Wait()
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesced: the final count must equal the key space exactly.
	if err := s.Groom(); err != nil {
		t.Fatal(err)
	}
	res, err := tableExecute(s, countPlan, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != devices*msgs {
		t.Fatalf("final COUNT = %v, want %d", res.Rows, devices*msgs)
	}
}
