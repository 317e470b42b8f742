package server

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"umzi"
	"umzi/internal/workload"
)

func init() {
	workload.Register(&workload.Scenario{
		Func: RemoteHTAP,
		Desc: "mixed HTAP through the wire protocol: concurrent writers commit while analysts stream aggregates; totals must reconcile",
		Attrs: []string{
			workload.AttrReadHeavy,
			workload.AttrWriteHeavy,
			workload.AttrRemote,
		},
		Timeout: 2 * time.Minute,
	})
}

// RemoteHTAP is the network analogue of htap.OrderAnalytics: writers
// push transactional ingest through the client pool while analysts run
// streaming scans concurrently, all over one server. At the end the
// row count observed through the wire must equal the rows acknowledged
// committed — the wire protocol loses nothing under concurrency.
func RemoteHTAP(ctx context.Context, s *workload.State) {
	cdb := s.OpenClient()
	name := s.UniqueName("htap")
	tbl, err := cdb.CreateTable(ctx, umzi.TableDef{
		Name: name,
		Columns: []umzi.TableColumn{
			{Name: "customer", Kind: umzi.KindInt64},
			{Name: "order", Kind: umzi.KindInt64},
			{Name: "total", Kind: umzi.KindFloat64},
		},
		PrimaryKey: []string{"customer", "order"},
		ShardKey:   []string{"customer"},
	}, umzi.TableOptions{
		Shards: 4,
		Index: umzi.IndexSpec{
			Equality: []string{"customer"},
			Sort:     []string{"order"},
			Included: []string{"total"},
		},
	})
	if err != nil {
		s.Fatalf("create table: %v", err)
	}

	const writers = 4
	perWriter := 600 * s.Scale()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.Seed() + int64(w)))
			for i := 0; i < perWriter; i += 20 {
				batch := make([]umzi.Row, 20)
				for j := range batch {
					order := int64(w*perWriter + i + j)
					batch[j] = umzi.Row{
						umzi.I64(int64(rng.Intn(16))*1000 + order%1000), // customer
						umzi.I64(order),
						umzi.F64(float64(rng.Intn(10000)) / 100),
					}
				}
				done := s.Time("remote_commit")
				if err := tbl.Upsert(ctx, batch...); err != nil {
					s.Errorf("writer %d: %v", w, err)
					return
				}
				done()
				s.Add("rows_committed", 20)
			}
		}(w)
	}

	// Analysts: streaming scans racing the ingest. Row counts only grow.
	actx, acancel := context.WithCancel(ctx)
	var awg sync.WaitGroup
	for a := 0; a < 2; a++ {
		awg.Add(1)
		go func() {
			defer awg.Done()
			last := 0
			for actx.Err() == nil {
				done := s.Time("remote_scan")
				rows, err := tbl.Query().IncludeLive().Run(actx)
				if err != nil {
					if actx.Err() == nil {
						s.Errorf("analyst open: %v", err)
					}
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				// Close after the end of the stream reports nothing; the
				// stream's own failure is in Err.
				err = rows.Err()
				if cerr := rows.Close(); err == nil {
					err = cerr
				}
				if actx.Err() != nil {
					return
				}
				if err != nil {
					s.Errorf("analyst close: %v", err)
					return
				}
				done()
				if n < last {
					s.Errorf("analyst saw row count shrink: %d after %d", n, last)
					return
				}
				last = n
				s.Add("scans_completed", 1)
			}
		}()
	}

	wg.Wait()
	acancel()
	awg.Wait()
	if s.Failed() {
		return
	}

	// Reconcile: distinct (customer, order) keys written == rows read.
	// Writers may collide on a key (same customer bucket + order), so
	// count distinct keys server-side through the primary index.
	rows, err := tbl.Query().IncludeLive().Run(ctx)
	if err != nil {
		s.Fatalf("reconcile: %v", err)
	}
	seen := 0
	for rows.Next() {
		seen++
	}
	if err := rows.Err(); err != nil {
		s.Errorf("reconcile stream: %v", err)
	}
	if err := rows.Close(); err != nil {
		s.Errorf("reconcile close: %v", err)
	}
	want := writers * perWriter
	if seen != want {
		s.Errorf("reconcile: %d rows over the wire, want %d", seen, want)
	}
}
