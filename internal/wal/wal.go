// Package wal implements the per-shard durable commit log that the
// Wildfire engine ingests through ("the log is the database", §2.1 of
// the paper): committed transactions land in the log before they are
// acknowledged, the live zone is a replayable view of the log tail, and
// the groomer consumes the log up to a persisted watermark.
//
// The log is built on the same append-only shared-storage abstraction as
// every other persistent structure in the system: it is a sequence of
// immutable segment objects under one prefix, each segment holding a
// checksummed batch of length-prefixed commit records. Because objects
// are written whole, the unit of durability is the segment — a group
// commit gathers the records of concurrent committers into one segment
// write, which is exactly the batching real group commit performs
// against fsync.
//
// A record carries the owning table, the commit sequence number of its
// first row (the per-shard PSN role of the paper's log order), a commit
// wall-clock timestamp, and the encoded rows; row i of a record has
// sequence Base+i. Replay skips rows at or below the groom watermark and
// applies each surviving sequence exactly once, so re-running recovery
// is idempotent.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"sync"
	"time"

	"umzi/internal/storage"
)

// SyncPolicy selects when a commit becomes durable.
type SyncPolicy int

const (
	// SyncDefault resolves to SyncPerCommit.
	SyncDefault SyncPolicy = iota
	// SyncPerCommit acknowledges a commit only after its records are in
	// a durable segment. Concurrent committers are batched into one
	// segment write (group commit), so the cost of the write amortizes
	// across the group.
	SyncPerCommit
	// SyncInterval buffers records in memory and writes a segment every
	// Options.Interval; a crash loses at most one interval of
	// acknowledged commits.
	SyncInterval
	// SyncOff buffers records until the buffer exceeds
	// Options.SegmentBytes (or the log is flushed or closed); a crash
	// loses everything buffered since the last segment write.
	SyncOff
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncDefault, SyncPerCommit:
		return "per-commit"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configure a Log.
type Options struct {
	// Policy selects the durability point (default: SyncPerCommit).
	Policy SyncPolicy
	// SegmentBytes is the target segment size: SyncOff flushes when the
	// buffer exceeds it, and per-commit group batches never merge past
	// it. Default 1 MiB.
	SegmentBytes int
	// GroupCommitWindow is how long a per-commit group leader waits for
	// more committers to join its batch before writing the segment.
	// Zero still batches whatever arrived while the previous segment
	// write was in flight — the natural group commit — but adds no
	// artificial delay.
	GroupCommitWindow time.Duration
	// Interval is the SyncInterval flush cadence (default 5ms).
	Interval time.Duration

	// Observer hooks, all optional (nil is a no-op). The log stays free
	// of any metrics dependency; the embedding engine wires these to its
	// own counters and histograms.

	// OnSegment is called after every successful segment write with the
	// record count of the batch (the group-commit batch size), the
	// segment's size in bytes, and how long the store write took.
	OnSegment func(records, bytes int, elapsed time.Duration)
	// OnFlushError is called when a background or size-triggered flush
	// fails on a buffered policy. Such errors are deliberately not
	// returned to committers (the records stay buffered and a later
	// flush retries), so without this hook they would be invisible.
	OnFlushError func(err error)
	// OnReclaim is called after Reclaim deletes segments, with the count.
	OnReclaim func(segments int)
}

func (o Options) withDefaults() Options {
	if o.Policy == SyncDefault {
		o.Policy = SyncPerCommit
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	return o
}

// Record is one committed transaction in the log.
type Record struct {
	// Table names the owning table shard (sanity-checked at replay).
	Table string
	// Replica is written as 0 and ignored at replay: a shard has one
	// committed log.
	Replica uint32
	// Base is the commit sequence number of Rows[0]; Rows[i] carries
	// sequence Base+i. Sequences are the per-shard commit order the
	// groomer merges by.
	Base uint64
	// CommitTS is the commit wall-clock time in Unix nanoseconds
	// (informational: inspection and debugging).
	CommitTS int64
	// Rows holds the engine-encoded rows of the transaction.
	Rows [][]byte
}

// maxSeq returns the sequence of the record's last row.
func (r Record) maxSeq() uint64 { return r.Base + uint64(len(r.Rows)) - 1 }

// SegmentInfo describes one durable segment (inspection and reclaim).
type SegmentInfo struct {
	Name    string
	Bytes   int64
	First   uint64 // smallest row sequence in the segment
	Last    uint64 // largest row sequence in the segment
	Records int
}

// Log is one per-shard commit log. All methods are safe for concurrent
// use.
type Log struct {
	store  storage.ObjectStore
	prefix string
	opts   Options

	// mu guards the buffered state; flushMu serializes segment writes
	// (the log has a single tail).
	mu       sync.Mutex
	buf      []byte
	bufFirst uint64
	bufLast  uint64
	bufRecs  int
	cur      *batch // open per-commit group, nil when none
	segSeq   uint64 // last segment number written
	segments []SegmentInfo
	maxSeq   uint64 // largest sequence ever appended (buffered or durable)
	closed   bool

	flushMu sync.Mutex

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// batch is one per-commit group: records staged by concurrent
// committers, written as a single segment by the first stager (the
// leader).
type batch struct {
	buf         []byte
	first, last uint64
	recs        int
	done        chan struct{}
	err         error
}

// Open opens (or initializes) the log under prefix, reading the headers
// of existing segments so replay and reclamation know each segment's
// sequence range without parsing record payloads.
func Open(store storage.ObjectStore, prefix string, opts Options) (*Log, error) {
	l := &Log{
		store:  store,
		prefix: prefix,
		opts:   opts.withDefaults(),
		stopCh: make(chan struct{}),
	}
	segs, err := Inspect(store, prefix)
	if err != nil {
		return nil, err
	}
	l.segments = segs
	for _, s := range segs {
		if n, ok := segNumber(prefix, s.Name); ok && n > l.segSeq {
			l.segSeq = n
		}
		if s.Last > l.maxSeq {
			l.maxSeq = s.Last
		}
	}
	if l.opts.Policy == SyncInterval {
		l.wg.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

func (l *Log) flushLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-t.C:
			if err := l.Flush(); err != nil && l.opts.OnFlushError != nil {
				l.opts.OnFlushError(err)
			}
		}
	}
}

// MaxSeq returns the largest row sequence the log has seen (durable or
// still buffered). Freshly opened logs report the largest durable
// sequence; engines floor their commit clock on it so sequences are
// never reused (segment contents must stay append-ordered).
func (l *Log) MaxSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxSeq
}

// Stats returns the durable segment count and total bytes.
func (l *Log) Stats() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segments {
		bytes += s.Bytes
	}
	return len(l.segments), bytes
}

// Commit appends a record and makes it durable according to the sync
// policy: per-commit waits for the segment write (joining the current
// group), interval and off return once the record is buffered.
//
// Commit deliberately takes no context: once a sequence number is woven
// into a group batch the write must run to completion — a caller that
// abandoned the group would leave its rows in a segment it believes
// failed. Callers cancel before Commit, not during.
func (l *Log) Commit(rec Record) error {
	if len(rec.Rows) == 0 {
		return nil
	}
	data := appendRecord(nil, rec)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if l.opts.Policy != SyncPerCommit {
		// Backpressure: when flushes keep failing, the buffer must not
		// grow without bound while commits keep getting acknowledged —
		// that would silently stretch the documented loss window from
		// "one interval / one segment" to everything since the failure
		// began. Reject BEFORE buffering (a record that entered the
		// buffer is accepted: failing it afterwards could resurrect a
		// commit the caller was told failed once a retry flush lands).
		if len(l.buf) >= walBackpressureSegments*l.opts.SegmentBytes {
			l.mu.Unlock()
			if err := l.Flush(); err != nil {
				return fmt.Errorf("wal: commit rejected, flush backlog exceeds %d segments: %w", walBackpressureSegments, err)
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return fmt.Errorf("wal: log closed")
			}
		}
		if rec.maxSeq() > l.maxSeq {
			l.maxSeq = rec.maxSeq()
		}
		if l.bufRecs == 0 || rec.Base < l.bufFirst {
			l.bufFirst = rec.Base
		}
		if rec.maxSeq() > l.bufLast {
			l.bufLast = rec.maxSeq()
		}
		l.buf = append(l.buf, data...)
		l.bufRecs++
		over := len(l.buf) >= l.opts.SegmentBytes
		l.mu.Unlock()
		if over {
			// The commit itself succeeded the moment it was buffered —
			// that is the buffered-policy contract — so a failing
			// size-triggered flush must not fail it: the records stay
			// buffered (Flush re-buffers on error) and a later flush,
			// groom or Close retries. Reporting the error here would make
			// the engine declare already-accepted sequences lost while
			// the retry could still make them durable. It is counted
			// through OnFlushError so it is not silently invisible.
			if err := l.Flush(); err != nil && l.opts.OnFlushError != nil {
				l.opts.OnFlushError(err)
			}
		}
		return nil
	}
	if rec.maxSeq() > l.maxSeq {
		l.maxSeq = rec.maxSeq()
	}

	// Group commit: stage into the open batch; the first stager leads.
	leader := false
	if l.cur == nil || len(l.cur.buf) >= l.opts.SegmentBytes {
		l.cur = &batch{done: make(chan struct{})}
		leader = true
	}
	b := l.cur
	if b.recs == 0 || rec.Base < b.first {
		b.first = rec.Base
	}
	if rec.maxSeq() > b.last {
		b.last = rec.maxSeq()
	}
	b.buf = append(b.buf, data...)
	b.recs++
	l.mu.Unlock()

	if !leader {
		<-b.done
		return b.err
	}
	if w := l.opts.GroupCommitWindow; w > 0 {
		time.Sleep(w)
	}
	// Serialize on the log tail first, then detach the batch: committers
	// arriving while an earlier segment write is in flight keep joining
	// this batch, which is where group commit wins without any window.
	l.flushMu.Lock()
	l.mu.Lock()
	if l.cur == b {
		l.cur = nil
	}
	l.mu.Unlock()
	b.err = l.writeSegment(b.buf, b.first, b.last, b.recs)
	l.flushMu.Unlock()
	close(b.done)
	return b.err
}

// Flush writes all buffered records (interval/off policies) to a
// segment. It is a no-op for an empty buffer.
func (l *Log) Flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.bufRecs == 0 {
		l.mu.Unlock()
		return nil
	}
	buf, first, last, recs := l.buf, l.bufFirst, l.bufLast, l.bufRecs
	l.buf, l.bufFirst, l.bufLast, l.bufRecs = nil, 0, 0, 0
	l.mu.Unlock()
	if err := l.writeSegment(buf, first, last, recs); err != nil {
		// Put the records back so a later flush (or Close) retries; the
		// buffer order no longer matters — replay orders by sequence.
		l.mu.Lock()
		l.buf = append(l.buf, buf...)
		if l.bufRecs == 0 || first < l.bufFirst {
			l.bufFirst = first
		}
		if last > l.bufLast {
			l.bufLast = last
		}
		l.bufRecs += recs
		l.mu.Unlock()
		return err
	}
	return nil
}

// writeSegment publishes one segment object. Callers hold flushMu.
func (l *Log) writeSegment(records []byte, first, last uint64, recs int) error {
	l.mu.Lock()
	l.segSeq++
	seq := l.segSeq
	l.mu.Unlock()
	name := segmentName(l.prefix, seq)
	data := make([]byte, 0, segHeaderSize+len(records))
	data = append(data, segMagic...)
	data = binary.BigEndian.AppendUint64(data, first)
	data = binary.BigEndian.AppendUint64(data, last)
	data = binary.BigEndian.AppendUint32(data, uint32(recs))
	data = binary.BigEndian.AppendUint32(data, 0) // reserved
	data = append(data, records...)
	start := time.Now()
	if err := l.store.Put(name, data); err != nil {
		return fmt.Errorf("wal: segment write: %w", err)
	}
	if l.opts.OnSegment != nil {
		l.opts.OnSegment(recs, len(data), time.Since(start))
	}
	l.mu.Lock()
	l.segments = append(l.segments, SegmentInfo{Name: name, Bytes: int64(len(data)), First: first, Last: last, Records: recs})
	l.mu.Unlock()
	return nil
}

// Replay visits every durable record whose sequence range reaches above
// afterSeq, in segment order. Rows at or below afterSeq inside a
// visited record are the caller's to skip (Record.Base tells it where
// each row sits).
func (l *Log) Replay(afterSeq uint64, visit func(Record) error) error {
	l.mu.Lock()
	segs := append([]SegmentInfo(nil), l.segments...)
	l.mu.Unlock()
	slices.SortFunc(segs, func(a, b SegmentInfo) int { return strings.Compare(a.Name, b.Name) })
	for _, s := range segs {
		if s.Last <= afterSeq {
			continue
		}
		data, err := l.store.Get(s.Name)
		if err != nil {
			return fmt.Errorf("wal: reading segment %s: %w", s.Name, err)
		}
		if err := visitSegment(s.Name, data, visit); err != nil {
			return err
		}
	}
	return nil
}

// Reclaim deletes segments entirely at or below throughSeq — segments
// whose every row the groomer has durably consumed. It returns the
// number of segments deleted.
func (l *Log) Reclaim(throughSeq uint64) (int, error) {
	l.mu.Lock()
	var keep, drop []SegmentInfo
	for _, s := range l.segments {
		if s.Last <= throughSeq {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.segments = keep
	l.mu.Unlock()
	for i, s := range drop {
		if err := l.store.Delete(s.Name); err != nil {
			// Put the survivors back; a later reclaim retries.
			l.mu.Lock()
			l.segments = append(l.segments, drop[i:]...)
			l.mu.Unlock()
			if i > 0 && l.opts.OnReclaim != nil {
				l.opts.OnReclaim(i)
			}
			return i, err
		}
	}
	if len(drop) > 0 && l.opts.OnReclaim != nil {
		l.opts.OnReclaim(len(drop))
	}
	return len(drop), nil
}

// Close flushes buffered records and stops the interval flusher. The
// log is unusable afterwards; Close after Close is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stopCh)
	l.wg.Wait()
	return l.Flush()
}

// ---- wire format ------------------------------------------------------

// Segment: header (magic, first/last sequence, record count), then
// length-prefixed checksummed records. Record: u32 payload length, u32
// CRC-32C of the payload, payload. Payload: base sequence u64, commit TS
// i64, replica u32, row count u32, table (u16 length + bytes), then per
// row a u32 length + encoded bytes.
const segMagic = "UMZIWAL1"

const segHeaderSize = 8 + 8 + 8 + 4 + 4

// walBackpressureSegments bounds the buffered policies' in-memory
// backlog: once the buffer holds this many segments' worth of records
// and a forced flush cannot drain it, further commits are rejected.
const walBackpressureSegments = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segmentName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s/seg-%016d", prefix, seq)
}

// segNumber parses a segment object name back into its number.
func segNumber(prefix, name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, prefix+"/seg-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

func appendRecord(dst []byte, rec Record) []byte {
	payload := make([]byte, 0, 32+len(rec.Table)+16*len(rec.Rows))
	payload = binary.BigEndian.AppendUint64(payload, rec.Base)
	payload = binary.BigEndian.AppendUint64(payload, uint64(rec.CommitTS))
	payload = binary.BigEndian.AppendUint32(payload, rec.Replica)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(rec.Rows)))
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(rec.Table)))
	payload = append(payload, rec.Table...)
	for _, row := range rec.Rows {
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(row)))
		payload = append(payload, row...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// decodeRecord parses one record from the front of b, returning the
// record and bytes consumed.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < 8 {
		return Record{}, 0, fmt.Errorf("wal: truncated record header")
	}
	n := int(binary.BigEndian.Uint32(b))
	sum := binary.BigEndian.Uint32(b[4:])
	if len(b) < 8+n {
		return Record{}, 0, fmt.Errorf("wal: truncated record payload (%d of %d bytes)", len(b)-8, n)
	}
	payload := b[8 : 8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return Record{}, 0, fmt.Errorf("wal: record checksum mismatch")
	}
	if len(payload) < 26 {
		return Record{}, 0, fmt.Errorf("wal: short record payload")
	}
	rec := Record{
		Base:     binary.BigEndian.Uint64(payload),
		CommitTS: int64(binary.BigEndian.Uint64(payload[8:])),
		Replica:  binary.BigEndian.Uint32(payload[16:]),
	}
	rows := int(binary.BigEndian.Uint32(payload[20:]))
	tlen := int(binary.BigEndian.Uint16(payload[24:]))
	off := 26
	if off+tlen > len(payload) {
		return Record{}, 0, fmt.Errorf("wal: truncated table name")
	}
	rec.Table = string(payload[off : off+tlen])
	off += tlen
	rec.Rows = make([][]byte, 0, rows)
	for i := 0; i < rows; i++ {
		if off+4 > len(payload) {
			return Record{}, 0, fmt.Errorf("wal: truncated row %d length", i)
		}
		rl := int(binary.BigEndian.Uint32(payload[off:]))
		off += 4
		if off+rl > len(payload) {
			return Record{}, 0, fmt.Errorf("wal: truncated row %d (%d bytes)", i, rl)
		}
		row := make([]byte, rl)
		copy(row, payload[off:off+rl])
		rec.Rows = append(rec.Rows, row)
		off += rl
	}
	return rec, 8 + n, nil
}

func visitSegment(name string, data []byte, visit func(Record) error) error {
	if len(data) < segHeaderSize || string(data[:8]) != segMagic {
		return fmt.Errorf("wal: %s is not a log segment", name)
	}
	recs := int(binary.BigEndian.Uint32(data[24:]))
	off := segHeaderSize
	for i := 0; i < recs; i++ {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return fmt.Errorf("wal: %s record %d: %w", name, i, err)
		}
		off += n
		if err := visit(rec); err != nil {
			return err
		}
	}
	return nil
}

// ---- storage-only inspection ------------------------------------------

// Inspect lists the log's durable segments from storage alone, reading
// only the fixed-size headers — the recovery-procedure view used by
// Open and by tooling (umzi-inspect).
func Inspect(store storage.ObjectStore, prefix string) ([]SegmentInfo, error) {
	names, err := store.List(prefix + "/seg-")
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(names))
	for _, name := range names {
		size, err := store.Size(name)
		if errors.Is(err, storage.ErrNotExist) {
			continue // racing reclaim
		}
		if err != nil {
			// Any other failure must surface: silently skipping a
			// readable segment would drop acknowledged rows from replay
			// AND lower the commit-clock floor, letting new commits
			// reuse the skipped segment's sequences.
			return nil, fmt.Errorf("wal: inspecting segment %s: %w", name, err)
		}
		if size < segHeaderSize {
			continue // not a segment (foreign object under the prefix)
		}
		hdr, err := store.GetRange(name, 0, segHeaderSize)
		if errors.Is(err, storage.ErrNotExist) {
			continue // racing reclaim
		}
		if err != nil {
			return nil, fmt.Errorf("wal: inspecting segment %s: %w", name, err)
		}
		if string(hdr[:8]) != segMagic {
			continue // not a segment
		}
		out = append(out, SegmentInfo{
			Name:    name,
			Bytes:   size,
			First:   binary.BigEndian.Uint64(hdr[8:]),
			Last:    binary.BigEndian.Uint64(hdr[16:]),
			Records: int(binary.BigEndian.Uint32(hdr[24:])),
		})
	}
	return out, nil
}

// TailRows counts the durable rows above afterSeq — the replay tail a
// reopen would rebuild into the live zone. It parses record headers
// only, not row payloads.
func TailRows(store storage.ObjectStore, prefix string, afterSeq uint64) (int, error) {
	segs, err := Inspect(store, prefix)
	if err != nil {
		return 0, err
	}
	return TailRowsIn(store, segs, afterSeq)
}

// TailRowsIn is TailRows over an already-inspected segment list, for
// callers that hold one (tooling that also reports the inventory). It
// walks record headers (base sequence + row count) without decoding or
// copying row payloads, so cost scales with record count, not WAL
// bytes held in rows.
func TailRowsIn(store storage.ObjectStore, segs []SegmentInfo, afterSeq uint64) (int, error) {
	total := 0
	for _, s := range segs {
		if s.Last <= afterSeq {
			continue
		}
		data, err := store.Get(s.Name)
		if err != nil {
			return 0, err
		}
		if len(data) < segHeaderSize || string(data[:8]) != segMagic {
			return 0, fmt.Errorf("wal: %s is not a log segment", s.Name)
		}
		recs := int(binary.BigEndian.Uint32(data[24:]))
		off := segHeaderSize
		for i := 0; i < recs; i++ {
			if len(data[off:]) < 8 {
				return 0, fmt.Errorf("wal: %s record %d: truncated header", s.Name, i)
			}
			n := int(binary.BigEndian.Uint32(data[off:]))
			payload := data[off+8:]
			if len(payload) < n || n < 24 {
				return 0, fmt.Errorf("wal: %s record %d: truncated payload", s.Name, i)
			}
			base := binary.BigEndian.Uint64(payload)
			rows := binary.BigEndian.Uint32(payload[20:])
			if rows > 0 {
				// Row r carries sequence base+r, so the rows above
				// afterSeq form the suffix [max(base, afterSeq+1), last].
				last := base + uint64(rows) - 1
				if last > afterSeq {
					from := base
					if afterSeq+1 > from {
						from = afterSeq + 1
					}
					total += int(last - from + 1)
				}
			}
			off += 8 + n
		}
	}
	return total, nil
}
