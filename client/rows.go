package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"umzi"
	"umzi/internal/wire"
)

// errPinned is the sentinel a streaming request returns through withConn
// to say "the connection now belongs to a stream; do not release it".
var errPinned = errors.New("client: conn pinned to stream")

// drainGrace bounds how long Close waits for the server to acknowledge
// a Cancel with the stream's terminal Done frame before giving the
// connection up for dead.
const drainGrace = 10 * time.Second

// frameBufPool recycles the per-stream frame read buffer. RowBatch
// payloads decode into it, and wire.Dec copies byte strings out, so the
// buffer is reusable the moment a batch is decoded — one buffer serves
// a whole stream, and streams recycle it through the pool.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// stream reads one remote query result off its connection: the
// RowSource that umzi.Rows wraps over the network. It owns the
// connection until the stream ends. Close on a half-read stream sends a
// Cancel frame — stopping the server-side cursor and its shard workers —
// and drains to the terminal Done so the connection returns to the pool
// at a frame boundary.
type stream struct {
	db  *DB
	cn  *conn
	ctx context.Context

	// stopWatch tears down the context watcher goroutine.
	stopWatch chan struct{}

	// mu guards the done transition. The context watcher's select can
	// pick ctx.Done over an already-closed stopWatch, so sendCancel must
	// re-check ownership under mu before touching a connection that end
	// may have released to the pool.
	mu sync.Mutex

	batch [][]umzi.Value
	idx   int // position in batch; -1 before the first Next

	// rbuf is the pooled frame read buffer; released once the stream
	// ends.
	rbuf *[]byte

	err      error
	done     bool // terminal Done consumed; cn released (guarded by mu)
	closed   bool
	canceled bool // we sent a Cancel frame
}

func newStream(db *DB, cn *conn, ctx context.Context) *stream {
	r := &stream{db: db, cn: cn, ctx: ctx, idx: -1,
		stopWatch: make(chan struct{}), rbuf: frameBufPool.Get().(*[]byte)}
	if ctx.Done() != nil {
		// The watcher translates context cancellation into a Cancel frame,
		// so a Next blocked on a read completes: the server answers with
		// Done(Canceled).
		go func() {
			select {
			case <-ctx.Done():
				r.sendCancel()
			case <-r.stopWatch:
			}
		}()
	}
	return r
}

// sendCancel sends one Cancel frame (idempotence is the server's
// problem; stale cancels are ignored there) and bounds the drain that
// must follow. It is a no-op once the stream is done: the connection
// then belongs to the pool (or another request), and arming a deadline
// or writing a frame on it would poison an unrelated round-trip.
func (r *stream) sendCancel() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.cn.c.SetReadDeadline(time.Now().Add(drainGrace))
	if err := r.cn.write(wire.FrameCancel, nil); err != nil {
		r.cn.broken.Store(true)
	}
}

// Next advances to the next row, pulling RowBatch frames off the wire
// as needed. It returns false at the end of the stream or on error;
// check Err to tell the two apart.
func (r *stream) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.idx+1 < len(r.batch) {
		r.idx++
		return true
	}
	return !r.done && r.advance(false)
}

// advance reads frames until the next non-empty row batch (true) or the
// stream's terminal Done or failure (false); draining discards batches.
// The previous batch's values were copied out of rbuf at decode time,
// so reusing it cannot corrupt rows a caller still holds.
func (r *stream) advance(draining bool) bool {
	for {
		typ, payload, err := wire.ReadFrameInto(r.cn.br, r.rbuf)
		if err != nil {
			r.end(fmt.Errorf("client: reading query stream: %w", err), false)
			return false
		}
		switch typ {
		case wire.FrameRowBatch:
			if draining {
				continue
			}
			d := wire.NewDec(payload)
			n := d.Count(1 << 20)
			batch := r.batch[:0]
			for i := 0; i < n && d.Err() == nil; i++ {
				batch = append(batch, d.Row())
			}
			if err := d.Err(); err != nil {
				r.end(err, false)
				return false
			}
			if n == 0 {
				continue // defensive: empty batch, keep reading
			}
			r.batch, r.idx = batch, 0
			return true
		case wire.FrameDone:
			r.end(doneError(doneParts(payload)), true)
			return false
		default:
			r.end(fmt.Errorf("client: unexpected frame 0x%02x in query stream", typ), false)
			return false
		}
	}
}

// end records the stream's outcome and releases its connection: to the
// pool after the terminal Done (atBoundary), torn down after a transport
// failure, which leaves the connection mid-stream. It runs once. A
// context-driven end reports the context's error: the Done(Canceled)
// answering the watcher's Cancel, or the deadline error of a read the
// watcher unblocked.
func (r *stream) end(err error, atBoundary bool) {
	r.mu.Lock()
	if ctxErr := r.ctx.Err(); ctxErr != nil && (!atBoundary || errors.Is(err, context.Canceled)) {
		err = ctxErr
	}
	r.err, r.done = err, true
	r.mu.Unlock()
	close(r.stopWatch)
	frameBufPool.Put(r.rbuf)
	r.rbuf = nil
	if !atBoundary {
		r.cn.destroy()
	}
	r.db.release(r.cn)
}

// Value returns the current row. The slice is reused; copy it to keep
// it past the next call to Next.
func (r *stream) Value() []umzi.Value {
	if r.idx < 0 || r.idx >= len(r.batch) {
		return nil
	}
	return r.batch[r.idx]
}

// Err returns the first error hit while streaming (nil after a clean
// end of stream). A context-driven cancellation reports the context's
// error; a server-reported admission or execution failure arrives here
// too.
func (r *stream) Err() error { return r.err }

// Close releases the stream. On a half-read stream it cancels the
// server-side cursor (Cancel frame) and drains to the terminal Done —
// the server owes exactly one — so the connection is reusable; either
// way the connection goes back to the pool or, if the protocol state is
// lost, is torn down. Close is idempotent and returns the stream's first
// error, so teardown failures are not silently dropped; an early Close
// that canceled a healthy stream is a success, not a context.Canceled.
func (r *stream) Close() error {
	if !r.closed && !r.done {
		r.canceled = true
		r.sendCancel()
		r.advance(true)
	}
	r.closed = true
	if r.canceled && errors.Is(r.err, context.Canceled) && r.ctx.Err() == nil {
		return nil
	}
	return r.err
}
