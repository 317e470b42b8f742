package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"umzi"
	"umzi/internal/front"
	"umzi/internal/wildfire"
	"umzi/internal/wire"
)

// Per-connection handling. Two goroutines per connection:
//
//   - the reader pulls frames off the socket. Cancel frames act
//     immediately — the reader fires the active query's CancelFunc, so
//     cancellation propagates into shard workers even while the
//     dispatcher is blocked writing a row batch to the peer. All other
//     frames queue for the dispatcher; a read error (disconnect) also
//     cancels the active query and closes the queue.
//   - the dispatcher (run) owns all writes and serves requests
//     sequentially: Hello first, then Query/Commit/CreateTable/Catalog/
//     Ping until the peer hangs up or the server shuts down.
//
// Slow consumers are bounded by construction: the dispatcher blocks on
// the TCP write, stops pulling the cursor, and the engine's per-shard
// workers block on their own bounded channels — a stalled client pins
// O(streamBuf) rows, not the result set. A client that cancels must
// drain to the Done frame; cancelGrace caps how long a canceling
// non-drainer can hold the write path before the connection is dropped.

const (
	// frameQueueDepth bounds pipelined client frames awaiting dispatch.
	frameQueueDepth = 8
	// cancelGrace is the write deadline armed when a Cancel arrives: the
	// residual batch and Done frame must drain within it.
	cancelGrace = 5 * time.Second
	// batchRows / batchBytes bound one RowBatch frame.
	batchRows  = 512
	batchBytes = 128 << 10
)

// beforeRowBatch, when set, runs before each RowBatch frame a query
// sends, with the query's context. It is nil except in tests, which set
// it to hold a stream at a known point.
var beforeRowBatch func(ctx context.Context)

type frame struct {
	typ     byte
	payload []byte
}

// batchBufPool recycles RowBatch encode buffers — the per-batch row
// buffer and the framed payload it is copied into. Sized for a full
// batch so steady-state streaming stops allocating per frame.
var batchBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, batchBytes+1024)
		return &b
	},
}

type connHandler struct {
	s      *Server
	c      net.Conn
	bw     *bufio.Writer
	frames chan frame
	tenant string

	// queryCancel is the active query's CancelFunc slot, owned by the
	// dispatcher, fired by the reader (Cancel frame or disconnect).
	// canceled records that the reader fired it, so the dispatcher can
	// tell a client cancel from spontaneous exhaustion.
	qmu         sync.Mutex
	queryCancel context.CancelFunc
	canceled    bool
}

func newConnHandler(s *Server, c net.Conn) *connHandler {
	return &connHandler{
		s:      s,
		c:      c,
		bw:     bufio.NewWriterSize(c, 64<<10),
		frames: make(chan frame, frameQueueDepth),
	}
}

// run serves the connection to completion. The caller closes the socket.
func (h *connHandler) run() {
	go h.readLoop()
	if !h.hello() {
		return
	}
	for {
		var f frame
		var ok bool
		select {
		case f, ok = <-h.frames:
			if !ok {
				return // peer hung up (or broke framing)
			}
		case <-h.s.ctx.Done():
			return // server shutdown; socket close unblocks the reader
		}
		// Clear any cancel-grace write deadline fireCancel armed for the
		// previous request; every handler starts with a fresh write path.
		h.c.SetWriteDeadline(time.Time{})
		var err error
		switch f.typ {
		case wire.FrameQuery:
			err = h.handleQuery(f.payload)
		case wire.FrameCommit:
			err = h.handleCommit(f.payload)
		case wire.FrameCreateTable:
			err = h.handleCreateTable(f.payload)
		case wire.FrameCatalog:
			err = h.handleCatalog()
		case wire.FramePing:
			err = h.reply(wire.StatusOK, "")
		default:
			h.reply(wire.StatusError, fmt.Sprintf("unexpected frame type 0x%02x", f.typ))
			return
		}
		if err != nil {
			return // write path failed; nothing more to say to this peer
		}
	}
}

// readLoop pulls frames until the peer disconnects. Cancel frames act
// in place; everything else queues for the dispatcher.
func (h *connHandler) readLoop() {
	defer close(h.frames)
	br := bufio.NewReaderSize(h.c, 64<<10)
	for {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			h.fireCancel() // mid-stream disconnect stops the cursor
			return
		}
		if typ == wire.FrameCancel {
			h.fireCancel()
			continue
		}
		select {
		case h.frames <- frame{typ: typ, payload: payload}:
		case <-h.s.ctx.Done():
			return
		}
	}
}

// fireCancel cancels the active query, if any; stale cancels (no query
// in flight) are ignored. It also arms the cancel-grace write deadline:
// a canceling client owes us a drain to Done, and one that never drains
// must not pin the connection's write path forever.
func (h *connHandler) fireCancel() {
	h.qmu.Lock()
	cancel := h.queryCancel
	if cancel != nil {
		h.canceled = true
	}
	h.qmu.Unlock()
	if cancel != nil {
		h.c.SetWriteDeadline(time.Now().Add(cancelGrace))
		cancel()
	}
}

// armQuery installs the active query's cancel slot; the returned func
// clears it and reports whether the reader fired a cancel.
func (h *connHandler) armQuery(cancel context.CancelFunc) (disarm func() (clientCanceled bool)) {
	h.qmu.Lock()
	h.queryCancel = cancel
	h.canceled = false
	h.qmu.Unlock()
	return func() bool {
		h.qmu.Lock()
		defer h.qmu.Unlock()
		h.queryCancel = nil
		return h.canceled
	}
}

// hello performs the opening handshake; on failure it reports and the
// connection ends.
func (h *connHandler) hello() bool {
	var f frame
	var ok bool
	select {
	case f, ok = <-h.frames:
		if !ok {
			return false
		}
	case <-h.s.ctx.Done():
		return false
	case <-time.After(10 * time.Second):
		h.s.mx.authFailures.Inc()
		h.reply(wire.StatusError, "hello timeout")
		return false
	}
	fail := func(msg string) bool {
		h.s.mx.authFailures.Inc()
		h.reply(wire.StatusError, msg)
		return false
	}
	if f.typ != wire.FrameHello {
		return fail("expected Hello")
	}
	d := wire.NewDec(f.payload)
	magic := make([]byte, len(wire.Magic))
	for i := range magic {
		magic[i] = d.Byte()
	}
	ver := d.Byte()
	token := d.String()
	if d.Err() != nil || string(magic) != wire.Magic {
		return fail("bad magic: not an umzi wire client")
	}
	if ver != wire.Version {
		return fail(fmt.Sprintf("protocol version %d not supported (server speaks %d)", ver, wire.Version))
	}
	if len(h.s.cfg.Tokens) == 0 {
		h.tenant = "public"
	} else {
		tenant, ok := h.s.cfg.Tokens[token]
		if !ok {
			return fail("unknown auth token")
		}
		h.tenant = tenant
	}
	payload := wire.AppendString(nil, h.tenant)
	payload = wire.AppendString(payload, h.s.cfg.Version)
	return h.send(wire.FrameHelloOK, payload) == nil
}

// send writes one frame and flushes it.
func (h *connHandler) send(typ byte, payload []byte) error {
	if err := wire.WriteFrame(h.bw, typ, payload); err != nil {
		return err
	}
	return h.bw.Flush()
}

// reply sends a Done frame.
func (h *connHandler) reply(status byte, msg string) error {
	return h.send(wire.FrameDone, append([]byte{status}, msg...))
}

// replyErr maps an error to the Done frame that reports it.
func (h *connHandler) replyErr(err error) error {
	status := wire.StatusError
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = wire.StatusCanceled
	}
	var adm *AdmissionError
	if errors.As(err, &adm) {
		status = wire.StatusAdmission
	}
	return h.reply(status, err.Error())
}

// handleQuery serves one Query frame: header, streamed batches, Done.
func (h *connHandler) handleQuery(payload []byte) error {
	h.s.mx.queries.Inc()
	d := wire.NewDec(payload)
	timeoutNS := d.U64()
	table := d.String()
	specBytes := d.Bytes()
	if err := d.Err(); err != nil {
		return h.replyErr(fmt.Errorf("malformed query frame: %w", err))
	}
	spec, err := wildfire.UnmarshalQuerySpec(specBytes)
	if err != nil {
		return h.replyErr(err)
	}
	tbl, err := h.s.db.Table(table)
	if err != nil {
		return h.replyErr(err)
	}

	qctx := h.s.ctx
	var cancel context.CancelFunc
	if timeoutNS > 0 {
		qctx, cancel = context.WithTimeout(qctx, time.Duration(timeoutNS))
	} else {
		qctx, cancel = context.WithCancel(qctx)
	}
	defer cancel()
	disarm := h.armQuery(cancel)

	rows, err := front.RunSpec(qctx, tbl.Query(), spec)
	if err != nil {
		disarm()
		return h.replyErr(err)
	}

	if err := h.send(wire.FrameRowHeader, wire.AppendStrings(nil, rows.Columns())); err != nil {
		rows.Close()
		disarm()
		// A failed stream write is a dead or canceling peer either way.
		h.s.mx.queryCancels.Inc()
		return err
	}

	// Stream: encode rows into one batch buffer, flush at the bounds.
	// The cursor honors qctx, so a fired cancel ends the loop within the
	// current batch; a stalled peer blocks the flush and, transitively,
	// the engine's bounded per-shard streams. Both the batch buffer and
	// the framed payload come from batchBufPool — send copies into the
	// bufio writer before returning, so the buffers are reusable the
	// moment it does.
	batchBuf := batchBufPool.Get().(*[]byte)
	batch := (*batchBuf)[:0]
	defer func() {
		*batchBuf = batch[:0]
		batchBufPool.Put(batchBuf)
	}()
	nRows := 0
	flush := func() error {
		if nRows == 0 {
			return nil
		}
		if beforeRowBatch != nil {
			beforeRowBatch(qctx)
		}
		pb := batchBufPool.Get().(*[]byte)
		payload := wire.AppendUvarint((*pb)[:0], uint64(nRows))
		payload = append(payload, batch...)
		batch, nRows = batch[:0], 0
		err := h.send(wire.FrameRowBatch, payload)
		*pb = payload[:0]
		batchBufPool.Put(pb)
		return err
	}
	var streamErr error
	for rows.Next() {
		b, err := wire.AppendRow(batch, rows.Values())
		if err != nil {
			streamErr = err
			break
		}
		batch = b
		nRows++
		if nRows >= batchRows || len(batch) >= batchBytes {
			if err := flush(); err != nil {
				// A dead peer (disconnect) lands here, whether or not the
				// reader has noticed yet and fired the cursor's cancel.
				rows.Close()
				disarm()
				h.s.mx.queryCancels.Inc()
				return err
			}
		}
	}
	if streamErr == nil {
		streamErr = rows.Err()
	}
	closeErr := rows.Close()
	clientCanceled := disarm()

	if streamErr == nil && closeErr != nil {
		// The satellite-audited path: a release failure on an otherwise
		// clean stream must reach the client, not vanish in teardown.
		streamErr = fmt.Errorf("closing query stream: %w", closeErr)
	}
	switch {
	case clientCanceled:
		h.s.mx.queryCancels.Inc()
		return h.reply(wire.StatusCanceled, "canceled")
	case streamErr != nil:
		return h.replyErr(streamErr)
	default:
		if err := flush(); err != nil {
			return err
		}
		return h.reply(wire.StatusOK, "")
	}
}

// handleCommit applies one Commit frame under admission control.
func (h *connHandler) handleCommit(payload []byte) error {
	d := wire.NewDec(payload)
	replica := int(d.Uvarint())
	nTables := d.Count(1 << 12)
	stages := make([]front.Staged, 0, nTables)
	total := 0
	for i := 0; i < nTables && d.Err() == nil; i++ {
		st := front.Staged{Table: d.String()}
		nRows := d.Count(1 << 20)
		for j := 0; j < nRows && d.Err() == nil; j++ {
			st.Rows = append(st.Rows, umzi.Row(d.Row()))
		}
		total += len(st.Rows)
		stages = append(stages, st)
	}
	if err := d.Err(); err != nil {
		return h.replyErr(fmt.Errorf("malformed commit frame: %w", err))
	}

	// Admission: every target table must be clear (or clear up) before
	// any row is staged; reads never pass through here.
	for _, st := range stages {
		if err := h.s.adm.admit(h.s.ctx, st.Table); err != nil {
			// Only true refusals count; a context error (server shutdown
			// while queued) is not an admission rejection.
			var adm *AdmissionError
			if errors.As(err, &adm) {
				h.s.mx.admissionRejected(st.Table).Inc()
			}
			return h.replyErr(err)
		}
	}

	tx, err := h.s.db.Begin(h.s.ctx)
	if err != nil {
		return h.replyErr(err)
	}
	tx.WithReplica(replica)
	for _, st := range stages {
		if err := tx.Upsert(st.Table, st.Rows...); err != nil {
			tx.Abort()
			return h.replyErr(err)
		}
	}
	if err := tx.Commit(h.s.ctx); err != nil {
		return h.replyErr(err)
	}
	h.s.mx.commits.Inc()
	h.s.mx.commitRows.Add(int64(total))
	return h.reply(wire.StatusOK, "")
}

// handleCreateTable serves one CreateTable frame. It refuses the two
// options that budget this server's CPU and memory, not a tenant's.
func (h *connHandler) handleCreateTable(payload []byte) error {
	var req front.CreateTableRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return h.replyErr(fmt.Errorf("malformed CreateTable request: %w", err))
	}
	field := ""
	switch {
	case req.ScanParallelism != 0:
		field = "ScanParallelism"
	case req.BlockCacheBytes != 0:
		field = "BlockCacheBytes"
	}
	if field != "" {
		return h.replyErr(fmt.Errorf("TableOptions.%s is a server-side setting; a remote CreateTable may not set it", field))
	}
	if _, err := h.s.db.CreateTable(req.Def, req.TableOptions); err != nil {
		return h.replyErr(err)
	}
	return h.reply(wire.StatusOK, "")
}

// handleCatalog serves one Catalog frame.
func (h *connHandler) handleCatalog() error {
	var resp wildfire.CatalogResponse
	for _, name := range h.s.db.Tables() {
		tbl, err := h.s.db.Table(name)
		if err != nil {
			continue // racing a concurrent drop; skip
		}
		resp.Tables = append(resp.Tables, wildfire.CatalogTable{
			Def:    tbl.Def(),
			Index:  tbl.PrimaryIndex(),
			Shards: tbl.NumShards(),
		})
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return h.replyErr(err)
	}
	return h.send(wire.FrameCatalogData, data)
}

// writeDone writes a bare Done frame to a raw conn (pre-handler paths:
// the connection-limit bouncer).
func writeDone(w io.Writer, payload []byte) {
	_ = wire.WriteFrame(w, wire.FrameDone, payload)
}

func statusErrorMsg(msg string) []byte {
	return append([]byte{wire.StatusError}, msg...)
}
