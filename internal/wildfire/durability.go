package wildfire

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/wal"
)

// The durable write path. Wildfire's live zone is not a primary data
// structure — "the log is the database" (§2.1): a transaction commits by
// appending to its shard's durable log, the live zone is an in-memory
// view of the log tail, and the groomer consumes the log up to a
// watermark that is persisted only once the groomed block and every
// index run built over it have landed in shared storage. This file wires
// the engine to internal/wal: commit staging, watermark advancement
// (with gap tracking, so out-of-order drains and aborted sequences never
// wedge it), log-tail replay on recovery, segment reclamation, and the
// clean-shutdown marker that lets an orderly restart skip replay.

// SyncPolicy selects when a commit becomes durable; see the wal package
// for the policy semantics.
type SyncPolicy = wal.SyncPolicy

// Durability policies, re-exported so engine users need not import wal.
const (
	// SyncDefault resolves to SyncPerCommit.
	SyncDefault = wal.SyncDefault
	// SyncPerCommit acknowledges a commit only after its log records are
	// durable; concurrent committers share one segment write (group
	// commit).
	SyncPerCommit = wal.SyncPerCommit
	// SyncInterval makes commits durable in the background every
	// DurabilityOptions.SyncInterval.
	SyncInterval = wal.SyncInterval
	// SyncOff buffers the log in memory until a segment fills.
	SyncOff = wal.SyncOff
)

// DurabilityOptions configure the per-shard commit log. The zero value
// is full durability: per-commit sync with group commit and defaulted
// segment sizing.
type DurabilityOptions struct {
	// SyncPolicy selects the durability point of Commit.
	SyncPolicy SyncPolicy
	// SegmentBytes is the target log segment size (default 1 MiB).
	SegmentBytes int
	// GroupCommitWindow is how long a group leader waits for more
	// committers before writing the shared segment. Zero still batches
	// everything that arrives while a prior segment write is in flight.
	GroupCommitWindow time.Duration
	// SyncInterval is the background flush cadence of the SyncInterval
	// policy (default 5ms).
	SyncInterval time.Duration
}

func (d DurabilityOptions) walOptions() wal.Options {
	return wal.Options{
		Policy:            d.SyncPolicy,
		SegmentBytes:      d.SegmentBytes,
		GroupCommitWindow: d.GroupCommitWindow,
		Interval:          d.SyncInterval,
	}
}

// walOptions derives the shard log's options with the engine's observer
// hooks attached: segment writes feed the group-commit batch-size and
// sync-latency histograms, swallowed buffered-policy flush failures are
// counted (they retry internally and would otherwise be invisible), and
// reclaimed segments accumulate.
func (e *shard) walOptions() wal.Options {
	o := e.durable.walOptions()
	// Read e.mx per call, not captured: the overhead benchmark swaps the
	// bundle after construction, and the hooks must follow it.
	o.OnSegment = func(records, _ int, elapsed time.Duration) {
		e.mx.walBatch.Observe(int64(records))
		e.mx.walSync.Observe(int64(elapsed))
	}
	o.OnFlushError = func(error) { e.mx.walFlushErrors.Inc() }
	o.OnReclaim = func(n int) { e.mx.walReclaimed.Add(int64(n)) }
	return o
}

// ---- storage names ----------------------------------------------------

// WALStoragePrefix is where a table shard's commit-log segments live;
// exported for inspection tooling.
func WALStoragePrefix(table string) string { return "tbl/" + table + "/wal" }

func walMarkPrefix(table string) string { return "tbl/" + table + "/wal-mark/" }

func walCleanName(table string) string { return "tbl/" + table + "/wal-clean" }

// walMarkRecord is the persisted groom watermark: every log row with
// sequence <= Mark is durably contained in groomed blocks (and their
// index runs), written by the groom of cycle Cycle. It is a sequenced
// record like the catalogs (storage.LoadRecord, storage.WriteRecord).
type walMarkRecord struct {
	Magic string
	Mark  uint64
	Cycle uint64
}

const walMarkMagic = "UMZIWMK1"

// walCleanRecord is the clean-shutdown marker: Close flushed the log
// and MaxSeq was the largest commit sequence ever assigned. A reopen
// that finds Mark >= MaxSeq knows the replay tail is empty and skips
// reading segments entirely. The marker is deleted on open, so only an
// orderly shutdown can produce it.
type walCleanRecord struct {
	Magic  string
	MaxSeq uint64
}

const walCleanMagic = "UMZIWCL1"

// LoadWALMark reads a table shard's newest valid groom watermark from
// storage alone (inspection and recovery). ok is false when the table
// has no readable one; seq is the newest listed mark-record sequence.
func LoadWALMark(store storage.ObjectStore, table string) (mark, cycle, seq uint64, ok bool, err error) {
	rec, seq, ok, err := storage.LoadRecord(store, walMarkPrefix(table), func(data []byte) (rec walMarkRecord, err error) {
		if err = json.Unmarshal(data, &rec); err == nil && rec.Magic != walMarkMagic {
			err = errors.New("wildfire: bad wal mark record")
		}
		return rec, err
	})
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("wildfire: loading wal mark: %w", err)
	}
	return rec.Mark, rec.Cycle, seq, ok, nil
}

// ---- engine glue ------------------------------------------------------

// stageCommit makes a transaction's rows durable per the sync policy
// and returns the first commit sequence assigned to them. On error the
// sequences are recorded as lost so the watermark can advance past
// them (they exist nowhere durable and never will).
func (e *shard) stageCommit(rows []Row) (uint64, error) {
	n := uint64(len(rows))
	base := e.commitSeq.Add(n)
	first := base - n + 1
	// Record.Replica stays 0: a shard has one committed log, and replay
	// ignores the field.
	rec := wal.Record{
		Table:    e.table.Name,
		Base:     first,
		CommitTS: time.Now().UnixNano(),
		Rows:     make([][]byte, 0, len(rows)),
	}
	for _, r := range rows {
		rec.Rows = append(rec.Rows, keyenc.AppendComposite(nil, r...))
	}
	if err := e.wal.Commit(rec); err != nil {
		e.mx.walCommitErrors.Inc()
		e.noteLostSeqs(first, base)
		return 0, err
	}
	e.mx.walAppends.Inc()
	e.mx.walRows.Add(int64(n))
	return first, nil
}

// noteLostSeqs records sequences that will never reach the live zone
// (failed log appends) so the contiguous groomed prefix can advance
// over them.
func (e *shard) noteLostSeqs(first, last uint64) {
	e.walMu.Lock()
	for s := first; s <= last; s++ {
		e.walDrained[s] = struct{}{}
	}
	e.walMu.Unlock()
}

// noteGroomedSeqs records the drained commit sequences of a groom whose
// block and index runs have all landed, advances the contiguous
// watermark, and returns the new value. Sequences above a gap (a commit
// between log append and live-zone publish when the groom drained) stay
// in the pending set until the gap closes; the watermark never jumps a
// sequence that could still surface.
func (e *shard) noteGroomedSeqs(seqs []uint64) uint64 {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	for _, s := range seqs {
		if s > e.walMark {
			e.walDrained[s] = struct{}{}
		}
	}
	for {
		if _, ok := e.walDrained[e.walMark+1]; !ok {
			break
		}
		delete(e.walDrained, e.walMark+1)
		e.walMark++
	}
	return e.walMark
}

// currentWALMark returns the in-memory groom watermark: every commit
// sequence at or below it is durably groomed.
func (e *shard) currentWALMark() uint64 {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	return e.walMark
}

// publishWalMark persists the watermark reached by the groom of cycle,
// prunes superseded mark records, and reclaims log segments wholly at
// or below it. Reclamation is gated on the persisted mark, which by
// construction trails every index run build of the covered grooms (the
// mark only advances in noteGroomedSeqs, called after the groom's block
// and its per-index runs land) — the log below the mark can never be
// needed again: replay starts above it, and lost index runs are
// re-derived from the groomed data blocks, not from the log (§5.5).
// Callers hold writerMu.
func (e *shard) publishWalMark(mark, cycle uint64) error {
	if mark <= e.walMarkPersisted {
		// Nothing new to persist, but retry reclamation: a groom whose
		// Reclaim failed transiently must not leak consumed segments
		// until the mark next advances (a no-op when nothing qualifies).
		_, err := e.wal.Reclaim(e.walMarkPersisted)
		return err
	}
	data, err := json.Marshal(walMarkRecord{Magic: walMarkMagic, Mark: mark, Cycle: cycle})
	if err != nil {
		return err
	}
	// The sequence is never rolled back on failure: mark names need not
	// be dense, and reusing a sequence after a failure that actually
	// published would wedge every future publish on write-once ErrExists.
	e.walMarkSeq++
	pruneFailures, err := storage.WriteRecord(e.store, walMarkPrefix(e.table.Name), e.walMarkSeq, data)
	if err != nil {
		return fmt.Errorf("wildfire: persisting wal mark: %w", err)
	}
	e.walMarkPersisted = mark
	e.mx.walPruneErrors.Add(int64(pruneFailures))
	if _, err := e.wal.Reclaim(mark); err != nil {
		return fmt.Errorf("wildfire: reclaiming wal segments: %w", err)
	}
	return nil
}

// recoverWAL rebuilds the live zone from the log tail after recoverState
// has restored the groomed and post-groomed state. It loads the
// persisted watermark, honors a clean-shutdown marker (skipping replay
// when the marker proves the tail is empty), replays surviving rows
// above the watermark into the committed log — idempotent: keyed on
// commit sequence, each applied at most once and never at or below the
// watermark — and floors the commit clock so sequences are
// never reused. Sequences above the watermark present in no segment
// (commits the crash cut before their flush) are recorded as lost so
// the watermark does not wedge below them forever.
func (e *shard) recoverWAL() error {
	mark, _, markSeq, _, err := LoadWALMark(e.store, e.table.Name)
	if err != nil {
		return err
	}
	e.walMark = mark
	e.walMarkPersisted = mark
	e.walMarkSeq = markSeq

	cleanName := walCleanName(e.table.Name)
	var clean walCleanRecord
	hadClean := false
	if data, err := e.store.Get(cleanName); err == nil {
		if json.Unmarshal(data, &clean) == nil && clean.Magic == walCleanMagic {
			hadClean = true
		}
		// Consume the marker either way: it attests only to the shutdown
		// that wrote it.
		if err := e.store.Delete(cleanName); err != nil {
			return err
		}
	} else if !errors.Is(err, storage.ErrNotExist) {
		return err
	}

	floor := e.wal.MaxSeq()
	if mark > floor {
		floor = mark
	}
	if hadClean && clean.MaxSeq > floor {
		floor = clean.MaxSeq
	}
	e.commitSeq.Store(floor)

	if hadClean && clean.MaxSeq <= mark {
		// Clean, quiesced shutdown: every sequence ever assigned is
		// groomed. Skip replay entirely; just finish any interrupted
		// segment reclamation.
		_, err := e.wal.Reclaim(mark)
		return err
	}

	kinds := make([]keyenc.Kind, len(e.table.Columns))
	for i, c := range e.table.Columns {
		kinds[i] = c.Kind
	}
	seen := make(map[uint64]struct{})
	err = e.wal.Replay(mark, func(rec wal.Record) error {
		if rec.Table != e.table.Name {
			return fmt.Errorf("wildfire: wal record for table %q in log of %q", rec.Table, e.table.Name)
		}
		for i, raw := range rec.Rows {
			seq := rec.Base + uint64(i)
			if seq <= mark {
				continue
			}
			if _, dup := seen[seq]; dup {
				continue
			}
			vals, _, err := keyenc.DecodeComposite(raw, kinds)
			if err != nil {
				return fmt.Errorf("wildfire: wal replay of seq %d: %w", seq, err)
			}
			seen[seq] = struct{}{}
			e.appendLog([]Row{Row(vals)}, seq, 0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Sequences the log never captured are gone for good; treat them as
	// drained so the watermark can move past them.
	for s := mark + 1; s <= floor; s++ {
		if _, ok := seen[s]; !ok {
			e.walDrained[s] = struct{}{}
		}
	}
	_, err = e.wal.Reclaim(mark)
	return err
}

// closeWAL flushes the log and writes the clean-shutdown marker; called
// once from Close.
func (e *shard) closeWAL() error {
	err := e.wal.Close()
	data, merr := json.Marshal(walCleanRecord{Magic: walCleanMagic, MaxSeq: e.commitSeq.Load()})
	if merr != nil {
		if err == nil {
			err = merr
		}
		return err
	}
	// The marker from a previous orderly shutdown was consumed on open;
	// delete defensively so Put's write-once semantics cannot trip.
	_ = e.store.Delete(walCleanName(e.table.Name))
	if perr := e.store.Put(walCleanName(e.table.Name), data); perr != nil && err == nil {
		err = perr
	}
	return err
}

// WALStatus is a snapshot of a shard's commit-log state.
type WALStatus struct {
	Segments     int
	SegmentBytes int64
	Mark         uint64 // durable groom watermark
	MaxSeq       uint64 // largest commit sequence assigned
}

// walStatus reports the shard's commit-log state (tooling and tests).
func (e *shard) walStatus() WALStatus {
	segs, bytes := e.wal.Stats()
	return WALStatus{
		Segments:     segs,
		SegmentBytes: bytes,
		Mark:         e.currentWALMark(),
		MaxSeq:       e.commitSeq.Load(),
	}
}
