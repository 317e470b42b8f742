// Package server holds scenarios that drive a running umzi-server over
// the wire protocol (umzi-workload -remote addr:port). They are the
// integration tier for the serving layer: streaming backpressure
// against stalled consumers, cancellation reclaiming server-side
// workers, and mixed HTAP traffic through the client pool.
package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/workload"
)

func init() {
	workload.Register(&workload.Scenario{
		Func: SlowConsumer,
		Desc: "stall a client mid-stream: bounded buffers must hold, the server must keep serving others, and cancel must reclaim the stream",
		Attrs: []string{
			workload.AttrReadHeavy,
			workload.AttrRemote,
		},
		Timeout: 2 * time.Minute,
	})
}

// SlowConsumer streams a result an order of magnitude bigger than the
// path's buffers (client bufio + TCP windows + server batch buffer) and
// then stops reading. The contract under test: the server dispatcher
// blocks on the TCP write, the engine's shard workers block on their
// bounded streams — a stalled peer pins O(buffers) rows, not the result
// set — and the rest of the server keeps answering other connections.
// Cancelling the stalled stream (Rows.Close sends a Cancel frame) must
// reclaim the server-side cursor and leave the connection reusable.
func SlowConsumer(ctx context.Context, s *workload.State) {
	cdb := s.OpenClient()

	// Wide rows so the stream's byte volume, not its row count, is the
	// lever: ~1 KiB per row, rows*KiB per full result.
	const payloadBytes = 1024
	rows := 4096 * s.Scale()
	pad := strings.Repeat("x", payloadBytes)

	name := s.UniqueName("slow")
	tbl, err := cdb.CreateTable(ctx, umzi.TableDef{
		Name: name,
		Columns: []umzi.TableColumn{
			{Name: "k", Kind: umzi.KindInt64},
			{Name: "pad", Kind: umzi.KindString},
		},
		PrimaryKey: []string{"k"},
		ShardKey:   []string{"k"},
	}, client.TableOptions{Shards: 4})
	if err != nil {
		s.Fatalf("create table: %v", err)
	}

	for lo := 0; lo < rows; lo += 256 {
		n := min(256, rows-lo)
		batch := make([]umzi.Row, n)
		for i := range batch {
			batch[i] = umzi.Row{umzi.I64(int64(lo + i)), umzi.Str(pad)}
		}
		if err := tbl.Upsert(ctx, batch...); err != nil {
			s.Fatalf("seed: %v", err)
		}
		s.Add("rows_ingested", int64(n))
	}

	// A second client connection probes liveness while the first stalls.
	prober := s.OpenClient()

	const storms = 3
	for storm := 0; storm < storms; storm++ {
		stream, err := tbl.Query().IncludeLive().Run(ctx)
		if err != nil {
			s.Fatalf("storm %d: open stream: %v", storm, err)
		}
		// Pull a token few rows, then stall with the stream open.
		for i := 0; i < 8 && stream.Next(); i++ {
			s.Add("rows_streamed", 1)
		}
		if err := stream.Err(); err != nil {
			s.Fatalf("storm %d: early rows: %v", storm, err)
		}
		s.Add("streams_stalled", 1)

		// While stalled, the server must still answer on other
		// connections — bounded buffers mean one wedged stream cannot
		// wedge the process.
		stallUntil := time.Now().Add(2 * time.Second)
		for time.Now().Before(stallUntil) {
			done := s.Time("probe_during_stall")
			if err := prober.Ping(ctx); err != nil {
				s.Errorf("storm %d: ping during stall: %v", storm, err)
				break
			}
			done()
			if err := tbl2Probe(ctx, prober, name); err != nil {
				s.Errorf("storm %d: query during stall: %v", storm, err)
				break
			}
			time.Sleep(100 * time.Millisecond)
		}

		// Cancel the stalled stream; Close must return clean and the
		// connection must come back reusable.
		done := s.Time("cancel_stalled_stream")
		if err := stream.Close(); err != nil {
			s.Errorf("storm %d: close stalled stream: %v", storm, err)
		}
		done()
		s.Add("streams_canceled", 1)
		if err := cdb.Ping(ctx); err != nil {
			s.Errorf("storm %d: ping after cancel: %v", storm, err)
		}
	}

	// Full drain: after every storm the complete result must still
	// arrive intact — nothing was lost to the cancels.
	drained := 0
	stream, err := tbl.Query().IncludeLive().Run(ctx)
	if err != nil {
		s.Fatalf("final drain: %v", err)
	}
	for stream.Next() {
		drained++
	}
	if err := stream.Err(); err != nil {
		s.Errorf("final drain stream: %v", err)
	}
	if err := stream.Close(); err != nil {
		s.Errorf("final drain close: %v", err)
	}
	if drained != rows {
		s.Errorf("final drain saw %d rows, want %d", drained, rows)
	}
	s.Add("rows_streamed", int64(drained))

	// Parallel stalls: every pooled connection stalled at once, then all
	// canceled — the pool and the server both recover.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := tbl.Query().IncludeLive().Run(ctx)
			if err != nil {
				s.Errorf("parallel stall: open: %v", err)
				return
			}
			st.Next()
			time.Sleep(500 * time.Millisecond)
			if err := st.Close(); err != nil {
				s.Errorf("parallel stall: close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := cdb.Ping(ctx); err != nil {
		s.Errorf("ping after parallel stalls: %v", err)
	}
}

// tbl2Probe runs one tiny point query on the prober connection.
func tbl2Probe(ctx context.Context, cdb *client.DB, table string) error {
	row, found, err := cdb.Table(table).Query().
		Where(umzi.Eq("k", umzi.I64(1))).IncludeLive().One(ctx)
	if err != nil {
		return err
	}
	if !found || len(row) == 0 {
		return fmt.Errorf("probe row missing")
	}
	return nil
}
