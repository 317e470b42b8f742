// Package server is umzi's network front end: a TCP listener speaking
// the internal/wire protocol, serving any number of tenants against one
// umzi.DB. Each connection is one sequential request/response channel —
// queries stream row batches, commits and DDL round-trip — with
// per-tenant token auth, a global connection limit, and admission
// control that pushes back on writes when the engine's own backpressure
// signals (WAL watermark lag, live-zone size) say grooming is behind.
// An optional HTTP admin listener exposes the DB's metrics handler.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"umzi"
	"umzi/internal/obs"
)

// Config configures a Server.
type Config struct {
	// DB is the database being served (required).
	DB *umzi.DB
	// Addr is the TCP listen address for ListenAndServe (e.g.
	// "127.0.0.1:7777", ":0" for an ephemeral port).
	Addr string
	// AdminAddr, when non-empty, starts an HTTP listener serving the
	// DB's metrics (at /metrics, Prometheus text or JSON) and a /healthz
	// probe.
	AdminAddr string
	// Tokens maps auth token -> tenant name. Empty means open access:
	// every token authenticates as tenant "public". With tokens
	// configured, an unknown token is rejected at Hello.
	Tokens map[string]string
	// MaxConns bounds simultaneously served connections; excess dials
	// are turned away with an error frame. 0 means 256.
	MaxConns int
	// Version is reported to clients in HelloOK ("dev" when empty).
	Version string
	// Admission configures write admission control; the zero value
	// admits everything.
	Admission AdmissionConfig
}

// Server is one running umzi network front end.
type Server struct {
	cfg Config
	db  *umzi.DB
	adm *admission
	mx  serverMetrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	ln       net.Listener
	adminLn  net.Listener
	adminSrv *http.Server
	conns    map[net.Conn]struct{}
	closed   bool
}

// serverMetrics is the server's own metric bundle, registered into the
// DB's registry so the admin endpoint exposes engine and serving
// metrics side by side.
type serverMetrics struct {
	reg           *obs.Registry
	connsOpen     *obs.Gauge
	connsTotal    *obs.Counter
	connsRejected *obs.Counter
	authFailures  *obs.Counter
	queries       *obs.Counter
	queryCancels  *obs.Counter
	commits       *obs.Counter
	commitRows    *obs.Counter
	queueDepth    *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		reg:           reg,
		connsOpen:     reg.Gauge("server_conns_open", "client connections currently served", nil),
		connsTotal:    reg.Counter("server_conns_total", "client connections accepted", nil),
		connsRejected: reg.Counter("server_conns_rejected", "connections turned away at the MaxConns limit", nil),
		authFailures:  reg.Counter("server_auth_failures", "Hello frames rejected (bad magic, version, or token)", nil),
		queries:       reg.Counter("server_queries", "query requests served", nil),
		queryCancels:  reg.Counter("server_query_cancels", "query streams ended by a client Cancel or disconnect", nil),
		commits:       reg.Counter("server_commits", "commit requests admitted and applied", nil),
		commitRows:    reg.Counter("server_commit_rows", "rows committed through the server", nil),
		queueDepth:    reg.Gauge("server_queue_depth", "writes currently queued by admission control", nil),
	}
}

// admissionRejected returns the per-table rejection counter; identity
// registration makes repeat lookups cheap and idempotent.
func (m *serverMetrics) admissionRejected(table string) *obs.Counter {
	return m.reg.Counter("server_admission_rejected",
		"writes rejected (or queue-timed-out) by admission control",
		obs.Labels{"table": table})
}

// New builds a server over a DB. Call Serve or ListenAndServe to start
// it, and Shutdown to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		db:     cfg.DB,
		mx:     newServerMetrics(cfg.DB.Registry()),
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	s.adm = newAdmission(cfg.DB, cfg.Admission, &s.mx)
	return s, nil
}

// ListenAndServe listens on Config.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the main listener's address ("" before Serve) — how
// tests and the -addr-file flag learn an ephemeral port.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until Shutdown (or a non-temporary
// accept error). It owns ln and closes it. Serve returns nil after a
// Shutdown-initiated stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	s.adm.start()
	if err := s.startAdmin(); err != nil {
		ln.Close()
		return err
	}

	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return nil // orderly shutdown closed the listener
			default:
			}
			return err
		}
		if !s.track(c) {
			// Over the connection limit (or shutting down): tell the
			// client why before hanging up, best-effort with a short
			// deadline so a non-reading peer cannot stall the accept loop.
			s.mx.connsRejected.Inc()
			c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			writeDone(c, statusErrorMsg("server at connection limit"))
			c.Close()
			continue
		}
		s.mx.connsTotal.Inc()
		s.mx.connsOpen.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.mx.connsOpen.Add(-1)
			defer s.untrack(c)
			newConnHandler(s, c).run()
		}()
	}
}

// track registers a live connection, enforcing MaxConns.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// startAdmin boots the HTTP admin listener when configured.
func (s *Server) startAdmin() error {
	if s.cfg.AdminAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", s.cfg.AdminAddr)
	if err != nil {
		return fmt.Errorf("server: admin listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.db.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	s.adminSrv = srv
	s.adminLn = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The admin surface is best-effort; its failure must not take
			// the data path down. The error is visible via the closed port.
			_ = err
		}
	}()
	return nil
}

// AdminAddr returns the admin listener's address ("" when disabled or
// before Serve).
func (s *Server) AdminAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Shutdown stops the server: the listeners close (no new connections),
// in-flight queries are cancelled, every connection is closed, and all
// serving goroutines are waited out — bounded by ctx. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	adminSrv := s.adminSrv
	s.mu.Unlock()

	// Order matters: mark the stop (so the accept loop reads its listener
	// error as shutdown), cancel every in-flight request (their contexts
	// descend from s.ctx), stop accepting, then close the sockets so
	// blocked reads and writes return. Handlers then exit on their own.
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.adm.stop()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown timed out: %w", ctx.Err())
	}
}

// Close is Shutdown with no deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }
