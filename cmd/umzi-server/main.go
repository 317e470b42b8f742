// Command umzi-server serves one umzi.DB over TCP with the umzi wire
// protocol: streamed queries, transactional commits, DDL, per-tenant
// token auth, and write admission control driven by the engine's own
// backpressure gauges. An optional HTTP admin port exposes metrics.
//
//	umzi-server -addr 127.0.0.1:7777 -admin 127.0.0.1:7778 \
//	    -dir /var/lib/umzi -token analytics=s3cret -max-wal-lag 4096
//
// SIGINT/SIGTERM shut the server down cleanly: listeners close,
// in-flight queries cancel, connections drain, the DB closes, exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/server"
)

const version = "umzi-server/1.0"

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7777", "TCP listen address (use :0 for an ephemeral port)")
		admin    = flag.String("admin", "", "HTTP admin listen address for /metrics and /healthz (empty = off)")
		dir      = flag.String("dir", "", "data directory for the shared store (empty = in-memory, volatile)")
		maxConns = flag.Int("max-conns", 256, "maximum simultaneously served connections")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		selftest = flag.Bool("selftest", false, "boot an in-memory server, run a client round-trip against it, and exit")

		groomEvery     = flag.Duration("groom-every", 100*time.Millisecond, "background groom cadence (0 = manual)")
		postGroomEvery = flag.Duration("postgroom-every", 10*time.Second, "background post-groom cadence (0 = manual)")

		maxWALLag    = flag.Int64("max-wal-lag", 0, "admission: per-table wal_watermark_lag ceiling (0 = off)")
		maxLiveRecs  = flag.Int64("max-live-records", 0, "admission: per-table live_records ceiling (0 = off)")
		queueWrites  = flag.Bool("queue-writes", false, "admission: queue over-threshold writes instead of rejecting")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "admission: bound on one queued write's wait")
	)
	tokens := map[string]string{}
	flag.Func("token", "tenant=token auth pair (repeatable; none = open access as tenant \"public\")", func(v string) error {
		tenant, token, ok := strings.Cut(v, "=")
		if !ok || tenant == "" || token == "" {
			return fmt.Errorf("want tenant=token, got %q", v)
		}
		tokens[token] = tenant
		return nil
	})
	flag.Parse()

	if err := run(runConfig{
		addr: *addr, admin: *admin, dir: *dir, maxConns: *maxConns,
		addrFile: *addrFile, selftest: *selftest, tokens: tokens,
		groomEvery: *groomEvery, postGroomEvery: *postGroomEvery,
		admission: server.AdmissionConfig{
			MaxWALLag:      *maxWALLag,
			MaxLiveRecords: *maxLiveRecs,
			Queue:          *queueWrites,
			QueueTimeout:   *queueTimeout,
		},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "umzi-server:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	addr, admin, dir, addrFile string
	maxConns                   int
	selftest                   bool
	tokens                     map[string]string
	groomEvery, postGroomEvery time.Duration
	admission                  server.AdmissionConfig
}

func run(rc runConfig) error {
	var store umzi.ObjectStore
	if rc.dir != "" {
		fs, err := umzi.NewFSStore(rc.dir, umzi.LatencyModel{})
		if err != nil {
			return fmt.Errorf("opening store at %s: %w", rc.dir, err)
		}
		store = fs
	} else {
		store = umzi.NewMemStore(umzi.LatencyModel{})
	}
	db, err := umzi.OpenDB(umzi.DBConfig{
		Store:          store,
		GroomEvery:     rc.groomEvery,
		PostGroomEvery: rc.postGroomEvery,
	})
	if err != nil {
		return fmt.Errorf("opening db: %w", err)
	}
	defer db.Close()

	srv, err := server.New(server.Config{
		DB:        db,
		Addr:      rc.addr,
		AdminAddr: rc.admin,
		Tokens:    rc.tokens,
		MaxConns:  rc.maxConns,
		Version:   version,
		Admission: rc.admission,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", rc.addr)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	announce(srv, ln.Addr().String(), rc.addrFile)

	if rc.selftest {
		if err := runSelftest(ln.Addr().String(), rc.tokens); err != nil {
			srv.Close()
			return fmt.Errorf("selftest: %w", err)
		}
		fmt.Println("selftest ok")
		return shutdown(srv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "umzi-server: %v: shutting down\n", s)
		return shutdown(srv)
	case err := <-serveErr:
		return err
	}
}

func announce(srv *server.Server, addr, addrFile string) {
	fmt.Fprintf(os.Stderr, "umzi-server: listening on %s", addr)
	if a := srv.AdminAddr(); a != "" {
		fmt.Fprintf(os.Stderr, " (admin %s)", a)
	}
	fmt.Fprintln(os.Stderr)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(addr), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "umzi-server: writing %s: %v\n", addrFile, err)
		}
	}
}

func shutdown(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// runSelftest drives one end-to-end round-trip through the running
// server with the public client: create a table, commit rows, stream
// them back, cancel a stream mid-flight.
func runSelftest(addr string, tokens map[string]string) error {
	token := ""
	for t := range tokens {
		token = t
		break
	}
	cdb, err := client.Open(client.Config{Addr: addr, Token: token})
	if err != nil {
		return err
	}
	defer cdb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cdb.Ping(ctx); err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	tbl, err := cdb.CreateTable(ctx, umzi.TableDef{
		Name:       "selftest",
		Columns:    []umzi.TableColumn{{Name: "k", Kind: umzi.KindInt64}, {Name: "v", Kind: umzi.KindString}},
		PrimaryKey: []string{"k"},
	}, client.TableOptions{})
	if err != nil {
		return fmt.Errorf("create table: %w", err)
	}
	for i := 0; i < 100; i++ {
		if err := tbl.Upsert(ctx, umzi.Row{umzi.I64(int64(i)), umzi.Str(fmt.Sprintf("v%03d", i))}); err != nil {
			return fmt.Errorf("upsert: %w", err)
		}
	}
	rows, err := tbl.Query().Where(umzi.Ge("k", umzi.I64(90))).IncludeLive().Run(ctx)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := rows.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if n != 10 {
		return fmt.Errorf("queried %d rows, want 10", n)
	}
	// Early close: the cancel path must leave the connection reusable.
	rows, err = tbl.Query().IncludeLive().Run(ctx)
	if err != nil {
		return fmt.Errorf("query 2: %w", err)
	}
	rows.Next()
	if err := rows.Close(); err != nil {
		return fmt.Errorf("early close: %w", err)
	}
	if err := cdb.Ping(ctx); err != nil {
		return fmt.Errorf("ping after cancel: %w", err)
	}
	return nil
}
