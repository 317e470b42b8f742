// Package client is the Go client for umzi-server: the network
// transport under the umzi front end. Table.Query returns umzi.Query,
// results stream through umzi.Rows, DB.Begin returns umzi.Tx and
// DB.CreateTable takes umzi.TableOptions, so a program written against
// umzi.DB ports to the network with an import swap and an address.
// This package supplies only the network: the connection pool, frames,
// the handshake, shipping the compiled spec, the frame reader that
// cancels and drains, and a transaction's one Commit frame.
//
//	db, err := client.Open(client.Config{Addr: "127.0.0.1:7777", Token: "t0"})
//	rows, err := db.Table("orders").Query().
//	    Where(umzi.Eq("customer", umzi.I64(7))).
//	    OrderBy("order").
//	    Run(ctx)
//
// One TCP connection carries one request at a time (a streaming query
// holds its connection until drained or closed); concurrency comes from
// a connection pool bounded by Config.MaxConns. Cancellation follows
// umzi.Rows: cancelling a query's context — or closing its Rows early —
// sends a Cancel frame, the server stops its cursor and shard workers,
// and the client drains to the stream's end so the connection returns
// to the pool. Neither side leaks a goroutine on that path. Explain
// traces are process-local: a remote query that carries one fails at
// Run.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"umzi/internal/wire"
)

// Config configures a client DB.
type Config struct {
	// Addr is the server's host:port (required).
	Addr string
	// Token authenticates the connection; the server maps it to a
	// tenant.
	Token string
	// MaxConns bounds the connection pool (concurrent in-flight
	// requests); 0 means 8.
	MaxConns int
	// DialTimeout bounds one TCP dial + handshake; 0 means 5s.
	DialTimeout time.Duration
}

// AdmissionError reports a write the server's admission control refused
// or timed out queueing; back off and retry. Test with errors.As.
type AdmissionError struct{ Msg string }

func (e *AdmissionError) Error() string { return e.Msg }

// DB is a client handle on one umzi-server. It is safe for concurrent
// use; all methods taking a context honor cancellation.
type DB struct {
	cfg Config

	mu      sync.Mutex
	idle    []*conn
	open    map[*conn]struct{} // every live conn, idle or checked out
	numOpen int
	closed  bool
	waiters []chan *conn // FIFO of acquirers waiting for a released conn

	tenant        string
	serverVersion string
}

// Open validates the configuration by dialing and authenticating one
// connection, which seeds the pool.
func Open(cfg Config) (*DB, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("client: Config.Addr is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 8
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	db := &DB{cfg: cfg, open: make(map[*conn]struct{})}
	cn, err := db.dial()
	if err != nil {
		return nil, err
	}
	db.tenant, db.serverVersion = cn.tenant, cn.serverVersion
	db.mu.Lock()
	db.numOpen = 1
	db.idle = []*conn{cn}
	db.mu.Unlock()
	return db, nil
}

// Tenant returns the tenant name the server authenticated this client
// as.
func (db *DB) Tenant() string { return db.tenant }

// ServerVersion returns the server's self-reported version.
func (db *DB) ServerVersion() string { return db.serverVersion }

// Table returns a handle on a named table. Like database/sql, the
// handle is lazy: a missing table surfaces when a query or commit runs.
func (db *DB) Table(name string) *Table { return &Table{db: db, name: name} }

// Close closes every pooled connection and refuses further use.
// Requests in flight on checked-out connections fail as their
// connections are closed underneath them.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.idle = nil
	open := db.open
	db.open = nil
	waiters := db.waiters
	db.waiters = nil
	db.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	// Every live connection dies, including ones checked out to streams
	// in flight — their reads fail as the socket closes underneath them.
	for cn := range open {
		cn.destroy()
	}
	return nil
}

// ---- Connection pool -------------------------------------------------

// conn is one authenticated protocol connection. At most one request
// uses it at a time; writeMu serializes the one concurrent write the
// protocol allows (a Cancel racing the request writer / watcher).
type conn struct {
	c             net.Conn
	br            *bufio.Reader
	bw            *bufio.Writer
	writeMu       sync.Mutex
	tenant        string
	serverVersion string
	// broken means protocol state is lost; do not pool. Atomic because a
	// stream's context watcher and DB.Close set it from goroutines racing
	// the connection's owner.
	broken atomic.Bool
}

func (db *DB) dial() (*conn, error) {
	c, err := net.DialTimeout("tcp", db.cfg.Addr, db.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", db.cfg.Addr, err)
	}
	cn := &conn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
	c.SetDeadline(time.Now().Add(db.cfg.DialTimeout))
	payload := append([]byte(wire.Magic), wire.Version)
	payload = wire.AppendString(payload, db.cfg.Token)
	if err := cn.write(wire.FrameHello, payload); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	typ, resp, err := wire.ReadFrame(cn.br)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c.SetDeadline(time.Time{})
	switch typ {
	case wire.FrameHelloOK:
		d := wire.NewDec(resp)
		cn.tenant = d.String()
		cn.serverVersion = d.String()
		if err := d.Err(); err != nil {
			c.Close()
			return nil, fmt.Errorf("client: handshake: %w", err)
		}
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			c.Close()
			return nil, fmt.Errorf("client: db closed")
		}
		db.open[cn] = struct{}{}
		db.mu.Unlock()
		return cn, nil
	case wire.FrameDone:
		c.Close()
		_, msg := doneParts(resp)
		return nil, fmt.Errorf("client: server rejected connection: %s", msg)
	default:
		c.Close()
		return nil, fmt.Errorf("client: handshake: unexpected frame 0x%02x", typ)
	}
}

// write frames and flushes one payload under the write lock.
func (cn *conn) write(typ byte, payload []byte) error {
	cn.writeMu.Lock()
	defer cn.writeMu.Unlock()
	if err := wire.WriteFrame(cn.bw, typ, payload); err != nil {
		return err
	}
	return cn.bw.Flush()
}

func (cn *conn) destroy() { cn.broken.Store(true); cn.c.Close() }

// acquire checks a connection out of the pool, dialing when below the
// limit, queueing otherwise.
func (db *DB) acquire(ctx context.Context) (*conn, error) {
	db.mu.Lock()
	for {
		if db.closed {
			db.mu.Unlock()
			return nil, fmt.Errorf("client: db closed")
		}
		if n := len(db.idle); n > 0 {
			cn := db.idle[n-1]
			db.idle = db.idle[:n-1]
			db.mu.Unlock()
			return cn, nil
		}
		if db.numOpen < db.cfg.MaxConns {
			db.numOpen++
			db.mu.Unlock()
			cn, err := db.dial()
			if err != nil {
				db.mu.Lock()
				db.numOpen--
				db.mu.Unlock()
				return nil, err
			}
			return cn, nil
		}
		// At the limit: wait for a release.
		w := make(chan *conn, 1)
		db.waiters = append(db.waiters, w)
		db.mu.Unlock()
		select {
		case cn, ok := <-w:
			if !ok {
				return nil, fmt.Errorf("client: db closed")
			}
			if cn != nil {
				return cn, nil
			}
			// released a slot, not a conn: loop to dial
			db.mu.Lock()
		case <-ctx.Done():
			// Abandon the waiter slot; a release finding this channel
			// full-of-nobody hands the conn to the next waiter instead.
			db.mu.Lock()
			for i, o := range db.waiters {
				if o == w {
					db.waiters = append(db.waiters[:i], db.waiters[i+1:]...)
					break
				}
			}
			db.mu.Unlock()
			// A conn may have been handed off concurrently; put it back.
			select {
			case cn := <-w:
				if cn != nil {
					db.release(cn)
				}
			default:
			}
			return nil, ctx.Err()
		}
	}
}

// release returns a healthy connection to the pool (or hands it to a
// waiter); broken connections close and free their slot.
func (db *DB) release(cn *conn) {
	db.mu.Lock()
	if cn.broken.Load() || db.closed {
		delete(db.open, cn)
		db.numOpen--
		waiters := db.waiters
		db.waiters = nil
		db.mu.Unlock()
		cn.c.Close()
		// Freed a dial slot: wake every waiter to re-contend (they loop
		// and dial).
		for _, w := range waiters {
			select {
			case w <- nil:
			default:
			}
		}
		return
	}
	// Defense in depth: no request's leftover read deadline may follow a
	// connection back into the pool.
	cn.c.SetReadDeadline(time.Time{})
	for len(db.waiters) > 0 {
		w := db.waiters[0]
		db.waiters = db.waiters[1:]
		select {
		case w <- cn:
			db.mu.Unlock()
			return
		default: // waiter gave up; try the next
		}
	}
	db.idle = append(db.idle, cn)
	db.mu.Unlock()
}

// ---- Request running -------------------------------------------------

// errRetryable marks a failure where the request cannot have taken
// effect server-side — the write never completed (a partial frame is
// unparseable), or the response vanished for a request that is safe to
// re-run — so withConn may retry once on a fresh connection.
type errRetryable struct{ err error }

func (e errRetryable) Error() string { return e.err.Error() }
func (e errRetryable) Unwrap() error { return e.err }

// withConn runs fn on a pooled connection, retrying once on a fresh
// connection when a stale pooled one failed before any response
// arrived. fn must either leave the connection at a frame boundary or
// mark it broken.
func (db *DB) withConn(ctx context.Context, fn func(cn *conn) error) error {
	for attempt := 0; ; attempt++ {
		cn, err := db.acquire(ctx)
		if err != nil {
			return err
		}
		err = fn(cn)
		if err == errPinned {
			// The connection now belongs to a query stream, which
			// releases it when the stream ends; see errPinned.
			return err
		}
		db.release(cn)
		var retry errRetryable
		if errors.As(err, &retry) {
			if attempt == 0 {
				continue
			}
			return retry.err
		}
		return err
	}
}

// doneParts splits a Done payload.
func doneParts(payload []byte) (status byte, msg string) {
	if len(payload) == 0 {
		return wire.StatusError, "empty Done frame"
	}
	return payload[0], string(payload[1:])
}

// doneError maps a non-OK Done frame to the error the caller sees.
func doneError(status byte, msg string) error {
	switch status {
	case wire.StatusOK:
		return nil
	case wire.StatusCanceled:
		return context.Canceled
	case wire.StatusAdmission:
		return &AdmissionError{Msg: msg}
	default:
		return fmt.Errorf("client: server error: %s", msg)
	}
}

// roundTrip sends one request frame and reads the one frame that
// answers it, honoring ctx via a read-deadline watcher: a Done, whose
// status becomes the error, or a frame of type data, whose payload it
// returns (pass wire.FrameDone when only a Done may answer). idempotent
// declares whether the request is safe to re-run when the response
// never arrives: a write failure leaves at most a partial (unparseable)
// frame on the wire, so it is always retryable, but a read failure
// after a completed write is ambiguous — the server may already have
// applied the request — so only idempotent round-trips (Ping, reads)
// report it as retryable; Commit and CreateTable surface the ambiguity
// instead of risking a silent double-apply.
func (cn *conn) roundTrip(ctx context.Context, typ byte, payload []byte, data byte, idempotent bool) (resp []byte, err error) {
	stop := cn.watch(ctx)
	defer func() { err = stop(err) }()
	if err := cn.write(typ, payload); err != nil {
		cn.broken.Store(true)
		return nil, errRetryable{err}
	}
	ftyp, resp, err := wire.ReadFrame(cn.br)
	if err != nil {
		cn.broken.Store(true)
		if idempotent {
			return nil, errRetryable{err}
		}
		return nil, fmt.Errorf("client: connection lost awaiting response (request may have been applied): %w", err)
	}
	switch ftyp {
	case wire.FrameDone:
		return nil, doneError(doneParts(resp))
	case data:
		return resp, nil
	}
	cn.broken.Store(true)
	return nil, fmt.Errorf("client: unexpected frame 0x%02x awaiting response", ftyp)
}

// watch unblocks this connection's reads when ctx ends by expiring the
// read deadline; the returned stop func tears the watcher down and
// rewrites a deadline-shaped error as the context's. A connection
// interrupted this way is mid-response and must not be pooled.
func (cn *conn) watch(ctx context.Context) func(error) error {
	if ctx.Done() == nil {
		return func(err error) error { return err }
	}
	stopCh := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			cn.c.SetReadDeadline(time.Now())
		case <-stopCh:
		}
	}()
	return func(err error) error {
		close(stopCh)
		if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				cn.broken.Store(true)
				return ctxErr
			}
			var r errRetryable
			if errors.As(err, &r) {
				cn.broken.Store(true)
				return ctxErr
			}
		}
		cn.c.SetReadDeadline(time.Time{})
		return err
	}
}

// Ping round-trips a health check.
func (db *DB) Ping(ctx context.Context) error {
	return db.withConn(ctx, func(cn *conn) error {
		_, err := cn.roundTrip(ctx, wire.FramePing, nil, wire.FrameDone, true)
		return err
	})
}
