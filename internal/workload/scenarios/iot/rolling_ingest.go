// Package iot holds ingest-shaped scenarios: the telemetry pattern the
// Wildfire paper targets — relentless appends per device with analytics
// trailing closely behind — sustained across enough groom and
// post-groom cycles that rows are read from every zone of the index.
package iot

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"umzi"
	"umzi/internal/workload"
)

func init() {
	workload.Register(&workload.Scenario{
		Func: RollingIngest,
		Desc: "sustained per-device appends across groom cycles; windowed scans must see every acked row exactly once, ordered scans a contiguous prefix",
		Attrs: []string{
			workload.AttrWriteHeavy,
			workload.AttrLongRunning,
		},
		Timeout: 3 * time.Minute,
	})
}

const (
	devices   = 6
	appendLen = 8  // rows per append transaction
	windowLen = 64 // trailing-window size for exact scans
)

// RollingIngest feeds per-device telemetry (one feeder per device,
// strictly increasing sequence numbers, appendLen rows per commit)
// while scanners chase the streams. Groom and post-groom periods are
// short so a run crosses many cycles and reads hit live, groomed and
// post-groomed zones. Two read checks run continuously:
//
//   - exact window: reading [hw-windowLen, hw) at MaxTS+IncludeLive,
//     where hw is the device's acked high-water mark captured before
//     the scan, must return exactly the acked sequence numbers — a
//     missing row is a lost write, a duplicate is a version leak
//     between zones;
//   - ordered prefix: an OrderBy(seq) scan at a groomed snapshot must
//     come back sorted and contiguous from 0 — per-device commits are
//     ordered, so a snapshot cut can only expose a prefix.
func RollingIngest(ctx context.Context, s *workload.State) {
	db := s.OpenDB(umzi.DBConfig{
		Store:          umzi.NewMemStore(umzi.LatencyModel{}),
		GroomEvery:     10 * time.Millisecond,
		PostGroomEvery: 80 * time.Millisecond,
	})
	tbl, err := db.CreateTable(umzi.TableDef{
		Name: "readings",
		Columns: []umzi.TableColumn{
			{Name: "device", Kind: umzi.KindInt64},
			{Name: "seq", Kind: umzi.KindInt64},
			{Name: "value", Kind: umzi.KindFloat64},
		},
		PrimaryKey: []string{"device", "seq"},
		ShardKey:   []string{"device"},
	}, umzi.TableOptions{Shards: 4})
	if err != nil {
		s.Fatalf("create table: %v", err)
	}

	rowsPerDevice := appendLen * 50 * s.Scale()
	var hw [devices]atomic.Int64   // acked rows per device
	var sent [devices]atomic.Int64 // rows submitted per device, acked or not
	var feedersDone atomic.Bool
	var fwg, swg sync.WaitGroup

	for d := 0; d < devices; d++ {
		fwg.Add(1)
		go func(d int) {
			defer fwg.Done()
			for seq := 0; seq < rowsPerDevice && ctx.Err() == nil; seq += appendLen {
				rows := make([]umzi.Row, appendLen)
				for i := range rows {
					rows[i] = umzi.Row{
						umzi.I64(int64(d)),
						umzi.I64(int64(seq + i)),
						umzi.F64(float64(seq+i) * 0.5),
					}
				}
				sent[d].Store(int64(seq + appendLen))
				stop := s.Time("append")
				err := tbl.Upsert(ctx, rows...)
				stop()
				if err != nil {
					if ctx.Err() == nil {
						s.Errorf("device %d: append at seq %d: %v", d, seq, err)
					}
					return
				}
				hw[d].Store(int64(seq + appendLen))
				// Pace the feed so the stream spans many groom cycles and
				// scanners race live, groomed and post-groomed zones.
				time.Sleep(2 * time.Millisecond)
			}
		}(d)
	}

	var windowScans, orderedScans atomic.Int64

	// Exact-window scanners: every acked row in the trailing window is
	// visible at MaxTS+IncludeLive, exactly once.
	for w := 0; w < 2; w++ {
		swg.Add(1)
		go func(w int) {
			defer swg.Done()
			for d := w; ctx.Err() == nil && !feedersDone.Load(); d = (d + 1) % devices {
				mark := hw[d].Load()
				if mark == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				lo := mark - windowLen
				if lo < 0 {
					lo = 0
				}
				stop := s.Time("window-scan")
				rows, err := tbl.Query().
					Where(umzi.And(
						umzi.Eq("device", umzi.I64(int64(d))),
						umzi.Ge("seq", umzi.I64(lo)),
						umzi.Lt("seq", umzi.I64(mark)))).
					Select("seq").
					At(umzi.MaxTS).
					IncludeLive().
					All(ctx)
				stop()
				if err != nil {
					if ctx.Err() == nil {
						s.Errorf("window scan device %d [%d,%d): %v", d, lo, mark, err)
					}
					return
				}
				seen := make(map[int64]bool, len(rows))
				for _, r := range rows {
					seq := r[0].Int()
					if seen[seq] {
						s.Errorf("window scan device %d: seq %d returned twice", d, seq)
					}
					seen[seq] = true
				}
				for seq := lo; seq < mark; seq++ {
					if !seen[seq] {
						s.Errorf("window scan device %d [%d,%d): acked seq %d missing", d, lo, mark, seq)
						break
					}
				}
				if int64(len(rows)) != mark-lo {
					s.Errorf("window scan device %d [%d,%d): %d rows, want %d", d, lo, mark, len(rows), mark-lo)
				}
				windowScans.Add(1)
			}
		}(w)
	}

	// Ordered-prefix scanner: an OrderBy scan at a groomed snapshot is
	// sorted and contiguous from 0, and never ahead of the rows submitted
	// by the time it returns. (A row can be groomed before its commit
	// returns to the feeder, so the ack mark is no bound.)
	swg.Add(1)
	go func() {
		defer swg.Done()
		for d := 0; ctx.Err() == nil && !feedersDone.Load(); d = (d + 1) % devices {
			stop := s.Time("ordered-scan")
			rows, err := tbl.Query().
				Where(umzi.Eq("device", umzi.I64(int64(d)))).
				Select("seq").
				OrderBy("seq").
				At(tbl.SnapshotTS()).
				All(ctx)
			stop()
			if err != nil {
				if ctx.Err() == nil {
					s.Errorf("ordered scan device %d: %v", d, err)
				}
				return
			}
			for i, r := range rows {
				if r[0].Int() != int64(i) {
					s.Errorf("ordered scan device %d: row %d has seq %d; groomed snapshot must be a contiguous ordered prefix", d, i, r[0].Int())
					break
				}
			}
			if mark := sent[d].Load(); int64(len(rows)) > mark {
				s.Errorf("ordered scan device %d: snapshot shows %d rows but only %d were submitted", d, len(rows), mark)
			}
			orderedScans.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	fwg.Wait()
	feedersDone.Store(true)
	swg.Wait()

	var appended int64
	for d := range hw {
		appended += hw[d].Load()
	}
	s.Add("rows-appended", appended)
	s.Add("window-scans", windowScans.Load())
	s.Add("ordered-scans", orderedScans.Load())
	if ctx.Err() != nil {
		s.Errorf("timed out before final verification (%d rows appended)", appended)
		return
	}

	// Quiesce and verify the full stream per device survived grooming.
	if err := tbl.Groom(); err != nil {
		s.Fatalf("final groom: %v", err)
	}
	for d := 0; d < devices; d++ {
		n, err := tbl.Query().
			Where(umzi.Eq("device", umzi.I64(int64(d)))).
			At(tbl.SnapshotTS()).
			Count(ctx)
		if err != nil {
			s.Fatalf("final count device %d: %v", d, err)
		}
		if n != int64(rowsPerDevice) {
			s.Errorf("device %d: final count %d, want %d", d, n, rowsPerDevice)
		}
	}
	s.Logf("done: %d rows across %d devices, %d window scans, %d ordered scans",
		appended, devices, windowScans.Load(), orderedScans.Load())
}
