package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/server"
)

// boot opens an in-memory DB, creates an orders-like table, and serves
// it on an ephemeral port; cleanup shuts everything down and asserts
// the shutdown is goroutine-clean.
func boot(t *testing.T, cfg server.Config) (*umzi.DB, *server.Server, string) {
	t.Helper()
	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	srv, err := server.New(cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
		db.Close()
	})
	return db, srv, ln.Addr().String()
}

func mkTable(t *testing.T, db *umzi.DB, name string, shards int) *umzi.Table {
	t.Helper()
	tbl, err := db.CreateTable(umzi.TableDef{
		Name: name,
		Columns: []umzi.TableColumn{
			{Name: "k", Kind: umzi.KindInt64},
			{Name: "v", Kind: umzi.KindString},
		},
		PrimaryKey: []string{"k"},
		ShardKey:   []string{"k"},
	}, umzi.TableOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestAuth(t *testing.T) {
	_, _, addr := boot(t, server.Config{Tokens: map[string]string{"tok-a": "alpha"}})

	cdb, err := client.Open(client.Config{Addr: addr, Token: "tok-a"})
	if err != nil {
		t.Fatalf("good token rejected: %v", err)
	}
	if got := cdb.Tenant(); got != "alpha" {
		t.Errorf("tenant = %q, want alpha", got)
	}
	cdb.Close()

	if _, err := client.Open(client.Config{Addr: addr, Token: "wrong"}); err == nil {
		t.Fatal("bad token accepted")
	} else if !strings.Contains(err.Error(), "unknown auth token") {
		t.Errorf("bad token error = %v, want token rejection", err)
	}
}

func TestOpenAccessWithoutTokens(t *testing.T) {
	_, _, addr := boot(t, server.Config{})
	cdb, err := client.Open(client.Config{Addr: addr, Token: "anything"})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	if got := cdb.Tenant(); got != "public" {
		t.Errorf("tenant = %q, want public", got)
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, _, addr := boot(t, server.Config{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An HTTP-shaped blob instead of a Hello frame: the length prefix
	// parses as an absurd frame and the server hangs up with an error.
	c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(buf); err == nil {
		// Server may answer with a Done-error frame before closing; the
		// connection must close either way.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for err == nil {
			_, err = c.Read(make([]byte, 4096))
		}
	}
}

func TestConnLimit(t *testing.T) {
	_, _, addr := boot(t, server.Config{MaxConns: 2})
	c1, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = client.Open(client.Config{Addr: addr})
	if err == nil {
		t.Fatal("third connection accepted over MaxConns=2")
	}
	if !strings.Contains(err.Error(), "connection limit") {
		t.Errorf("over-limit error = %v, want connection-limit rejection", err)
	}
}

func TestQueryRoundTripAndScan(t *testing.T) {
	db, _, addr := boot(t, server.Config{})
	tbl := mkTable(t, db, "t", 2)
	ctx := context.Background()
	var want []string
	for i := 0; i < 50; i++ {
		v := fmt.Sprintf("v%02d", i)
		want = append(want, v)
		if err := tbl.Upsert(ctx, umzi.Row{umzi.I64(int64(i)), umzi.Str(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}

	cdb, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	rows, err := cdb.Table("t").Query().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]string{}
	for rows.Next() {
		var k int64
		var v string
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatal(err)
		}
		got[k] = v
	}
	// An ended stream holds no row, as in process
	// (TestRowsExhaustionThenClose).
	if v := rows.Values(); v != nil {
		t.Errorf("Values after the stream ended = %v, want nil", v)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i, v := range want {
		if got[int64(i)] != v {
			t.Errorf("row %d = %q, want %q", i, got[int64(i)], v)
		}
	}
}

func TestRemoteCommitVisibleLocally(t *testing.T) {
	db, _, addr := boot(t, server.Config{})
	mkTable(t, db, "t", 1)
	ctx := context.Background()

	cdb, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	tx, err := cdb.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Upsert("t", umzi.Row{umzi.I64(1), umzi.Str("one")}, umzi.Row{umzi.I64(2), umzi.Str("two")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.LiveCount(); got != 2 {
		t.Errorf("LiveCount = %d after remote commit, want 2", got)
	}
}

// TestCreateTableAndCatalog creates tables through the client with
// umzi.TableOptions. The server refuses the two options that budget its
// own CPU and memory, names the field, and creates nothing.
func TestCreateTableAndCatalog(t *testing.T) {
	_, _, addr := boot(t, server.Config{})
	ctx := context.Background()
	cdb, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	def := func(name string) umzi.TableDef {
		return umzi.TableDef{
			Name:       name,
			Columns:    []umzi.TableColumn{{Name: "k", Kind: umzi.KindInt64}},
			PrimaryKey: []string{"k"},
			ShardKey:   []string{"k"},
		}
	}
	for _, c := range []struct {
		name    string
		opts    umzi.TableOptions
		refused string // the field the error names; "" when accepted
	}{
		{"made", umzi.TableOptions{Shards: 3}, ""},
		{"scan", umzi.TableOptions{Shards: 3, ScanParallelism: 2}, "ScanParallelism"},
		{"cache", umzi.TableOptions{BlockCacheBytes: 1 << 20}, "BlockCacheBytes"},
	} {
		_, err := cdb.CreateTable(ctx, def(c.name), c.opts)
		switch {
		case c.refused == "" && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Fatalf("%s: err = %v, want a refusal naming %s", c.name, err, c.refused)
		}
	}
	infos, err := cdb.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Def.Name != "made" || infos[0].Shards != 3 {
		t.Fatalf("catalog = %+v, want one 3-shard table 'made'", infos)
	}
}

func TestCancelMidStream(t *testing.T) {
	db, _, addr := boot(t, server.Config{})
	tbl := mkTable(t, db, "big", 4)
	ctx := context.Background()
	// Big enough that the server cannot finish the stream into socket
	// buffers before the cancel arrives.
	pad := strings.Repeat("p", 1024)
	for lo := 0; lo < 20000; lo += 200 {
		batch := make([]umzi.Row, 200)
		for i := range batch {
			batch[i] = umzi.Row{umzi.I64(int64(lo + i)), umzi.Str(pad)}
		}
		if err := tbl.Upsert(ctx, batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}

	cdb, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	// Close mid-stream: Cancel frame, drain, reusable connection.
	rows, err := cdb.Table("big").Query().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	if err := cdb.Ping(ctx); err != nil {
		t.Fatalf("ping after cancel: %v", err)
	}

	// Context cancellation mid-stream must surface ctx.Err and leave the
	// pool usable.
	qctx, qcancel := context.WithCancel(ctx)
	rows, err = cdb.Table("big").Query().Run(qctx)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	qcancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after ctx cancel = %v, want context.Canceled", err)
	}
	rows.Close()
	if err := cdb.Ping(ctx); err != nil {
		t.Fatalf("ping after ctx cancel: %v", err)
	}

	// The server counted the cancels.
	snap := db.Metrics()
	if got := metricValue(snap, "server_query_cancels"); got < 2 {
		t.Errorf("server_query_cancels = %d, want >= 2", got)
	}
}

// TestCancelAtStreamCompletion exercises the standard defer-cancel()
// pattern: the context is canceled just as its stream completes, racing
// the Rows' context watcher against finish() releasing the connection.
// A late watcher firing must not touch the released connection — a
// stray Cancel frame or armed read deadline on the pooled conn would
// spuriously cancel the next query that checks it out.
func TestCancelAtStreamCompletion(t *testing.T) {
	db, _, addr := boot(t, server.Config{})
	tbl := mkTable(t, db, "small", 2)
	ctx := context.Background()
	rowsIn := make([]umzi.Row, 64)
	for i := range rowsIn {
		rowsIn[i] = umzi.Row{umzi.I64(int64(i)), umzi.Str("v")}
	}
	if err := tbl.Upsert(ctx, rowsIn...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}

	// One connection: every iteration reuses the conn the previous one
	// released, so any post-release poison hits the next query.
	cdb, err := client.Open(client.Config{Addr: addr, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	for i := 0; i < 300; i++ {
		qctx, cancel := context.WithCancel(ctx)
		rows, err := cdb.Table("small").Query().Run(qctx)
		if err != nil {
			t.Fatalf("iter %d: run: %v", i, err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		cancel() // races the watcher against stream completion
		if err := rows.Err(); err != nil {
			t.Fatalf("iter %d: stream err = %v", i, err)
		}
		if n != len(rowsIn) {
			t.Fatalf("iter %d: got %d rows, want %d", i, n, len(rowsIn))
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", i, err)
		}
	}
}

// TestDisconnectMidStream injects an abrupt client disconnect while the
// server is streaming: the reader loop must fire the cursor's cancel so
// shard workers release, and the server's goroutines must all return —
// the wire-level audit of the scatterStream release-error path.
func TestDisconnectMidStream(t *testing.T) {
	db, srv, addr := boot(t, server.Config{})
	tbl := mkTable(t, db, "big", 4)
	ctx := context.Background()
	pad := strings.Repeat("p", 1024)
	for lo := 0; lo < 40000; lo += 200 {
		batch := make([]umzi.Row, 200)
		for i := range batch {
			batch[i] = umzi.Row{umzi.I64(int64(lo + i)), umzi.Str(pad)}
		}
		if err := tbl.Upsert(ctx, batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		cdb, err := client.Open(client.Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cdb.Table("big").Query().Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("round %d: no first row: %v", round, rows.Err())
		}
		// Abrupt disconnect: no Cancel frame, no drain — the socket just
		// dies under the stream.
		cdb.Close()
	}

	// Server-side goroutines must settle back: the reader observed the
	// disconnect, canceled the cursor, and the dispatcher exited.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after disconnects: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Each round must be accounted a cancel/disconnect. The last round's
	// dispatcher may still be inside its cancel-grace write deadline, so
	// poll rather than assert instantly.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if got := metricValue(db.Metrics(), "server_query_cancels"); got >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server_query_cancels = %d, want >= 5",
				metricValue(db.Metrics(), "server_query_cancels"))
		}
		time.Sleep(50 * time.Millisecond)
	}
	_ = srv
}

func TestAdmissionRejectAndRecover(t *testing.T) {
	db, _, addr := boot(t, server.Config{
		Admission: server.AdmissionConfig{
			MaxLiveRecords: 10,
			SampleEvery:    5 * time.Millisecond,
		},
	})
	tbl := mkTable(t, db, "t", 1)
	ctx := context.Background()

	cdb, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	ctbl := cdb.Table("t")

	// Under the threshold: writes flow.
	rows := make([]umzi.Row, 30)
	for i := range rows {
		rows[i] = umzi.Row{umzi.I64(int64(i)), umzi.Str("x")}
	}
	if err := ctbl.Upsert(ctx, rows...); err != nil {
		t.Fatalf("first write (pressure not yet sampled): %v", err)
	}

	// The live zone now exceeds MaxLiveRecords; once sampled, further
	// writes must bounce with a typed AdmissionError.
	deadline := time.Now().Add(5 * time.Second)
	var admErr *client.AdmissionError
	for {
		err := ctbl.Upsert(ctx, umzi.Row{umzi.I64(999), umzi.Str("y")})
		if errors.As(err, &admErr) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected write error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission control never rejected over-threshold writes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(admErr.Msg, "live_records") {
		t.Errorf("admission error %q does not name the signal", admErr.Msg)
	}

	// Grooming clears the live zone; writes must flow again.
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		err := ctbl.Upsert(ctx, umzi.Row{umzi.I64(1000), umzi.Str("z")})
		if err == nil {
			break
		}
		if !errors.As(err, &admErr) {
			t.Fatalf("unexpected write error during recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission control never recovered after groom")
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := db.Metrics()
	if got := metricValue(snap, "server_admission_rejected"); got < 1 {
		t.Errorf("server_admission_rejected = %d, want >= 1", got)
	}
}

func TestAdmissionQueueWaitsForGroom(t *testing.T) {
	db, _, addr := boot(t, server.Config{
		Admission: server.AdmissionConfig{
			MaxLiveRecords: 10,
			Queue:          true,
			QueueTimeout:   10 * time.Second,
			SampleEvery:    5 * time.Millisecond,
		},
	})
	tbl := mkTable(t, db, "t", 1)
	ctx := context.Background()
	cdb, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	ctbl := cdb.Table("t")

	rows := make([]umzi.Row, 30)
	for i := range rows {
		rows[i] = umzi.Row{umzi.I64(int64(i)), umzi.Str("x")}
	}
	if err := ctbl.Upsert(ctx, rows...); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the sampler see the pressure

	// This write should queue, then complete once the groomer clears the
	// pressure.
	writeDone := make(chan error, 1)
	go func() {
		writeDone <- ctbl.Upsert(ctx, umzi.Row{umzi.I64(999), umzi.Str("y")})
	}()
	select {
	case err := <-writeDone:
		// Either the sampler had not seen the pressure yet (admitted
		// clean) or queueing is broken; tell them apart by timing the next
		// one after pressure is certain.
		if err != nil {
			t.Fatalf("queued write failed: %v", err)
		}
		t.Skip("pressure not sampled before write; timing too tight on this machine")
	case <-time.After(300 * time.Millisecond):
		// Still queued — good.
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatalf("queued write failed after groom: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued write never completed after groom cleared the pressure")
	}
}

// TestShutdownUnblocksStreams: Shutdown ends a stream the server is
// still writing, and the client sees an error rather than a hang or a
// complete result. The server is held before its second RowBatch frame
// until Shutdown cancels the query, so the stream is mid-flight however
// much of it the sockets could have buffered.
func TestShutdownUnblocksStreams(t *testing.T) {
	held := make(chan struct{})
	var batches int
	server.SetBeforeRowBatch(func(ctx context.Context) {
		if batches++; batches == 2 {
			close(held)
			<-ctx.Done()
		}
	})
	t.Cleanup(func() { server.SetBeforeRowBatch(nil) })
	db, srv, addr := boot(t, server.Config{})
	tbl := mkTable(t, db, "big", 2)
	ctx := context.Background()
	pad := strings.Repeat("p", 1024)
	for lo := 0; lo < 4000; lo += 200 {
		batch := make([]umzi.Row, 200)
		for i := range batch {
			batch[i] = umzi.Row{umzi.I64(int64(lo + i)), umzi.Str(pad)}
		}
		if err := tbl.Upsert(ctx, batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Groom(); err != nil {
		t.Fatal(err)
	}

	cdb, err := client.Open(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	rows, err := cdb.Table("big").Query().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	select {
	case <-held: // the server is about to send its second batch
	case <-time.After(10 * time.Second):
		t.Fatal("the server never reached its second row batch")
	}

	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown with live stream: %v", err)
	}
	// The client sees the stream die, not hang.
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Error("stream survived server shutdown with no error")
	}
	rows.Close()
}

func metricValue(snap *umzi.MetricsSnapshot, name string) int64 {
	var total int64
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == name {
			total += snap.Metrics[i].Value
		}
	}
	return total
}
