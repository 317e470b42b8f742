package wildfire

import (
	"cmp"
	"slices"
	"time"
)

// The live zone (§2.1): a transaction's uncommitted upserts are its
// side-log, which here is umzi.Tx's staging. At commit, shard.commit
// makes each shard's share durable in the shard's commit log
// (internal/wal) and then publishes it to the shard's one committed
// in-memory log with its tentative commit sequences. The
// committed log is the groomer's input and is also scanned directly by
// freshness-sensitive queries, since the live zone is not covered by
// the index (§3). The in-memory log is a view of the durable log's
// tail: a crash rebuilds it by replaying every sequence above the groom
// watermark (recoverWAL).

// logRecord is one committed upsert awaiting grooming.
type logRecord struct {
	row       Row
	commitSeq uint64 // global commit order (tentative commit time)
	// ack is the commit acknowledgment wall-clock time in Unix
	// nanoseconds — when the committer learned its rows were durable.
	// The groomer measures ack -> groomed-visibility freshness from it.
	// Zero for rows rebuilt by log replay: their original ack time is
	// unknowable and must not pollute the freshness distribution.
	ack int64
}

// appendLog publishes rows to the committed log; row i carries the
// pre-assigned commit sequence base+i. Sequences are assigned before
// the durable log append, so by the time a row is visible here it is
// already as durable as the sync policy promises. ack is the commit
// acknowledgment time in Unix nanoseconds (0 for replayed rows).
func (e *shard) appendLog(rows []Row, base uint64, ack int64) {
	e.logMu.Lock()
	for i, row := range rows {
		e.log = append(e.log, logRecord{row: row, commitSeq: base + uint64(i), ack: ack})
	}
	e.logMu.Unlock()
}

// requeue puts drained records back (a groom that failed after draining
// must not lose them: they are acknowledged and, per policy, durable).
func (e *shard) requeue(recs []logRecord) {
	e.logMu.Lock()
	e.log = append(e.log, recs...)
	e.logMu.Unlock()
}

// drainLive moves the committed log's records, in commit order, into
// the zone version's grooming set and returns them. It holds the log
// lock until the version is published, so a reader that finds a record
// gone from the log loads a version that holds it.
//
// The log is not always in commit order, so drainLive sorts it by
// commitSeq. Sequences are assigned before the durable append
// (stageCommit), so two concurrent commits can publish out of order,
// and a failed groom requeues its records behind newer ones. Assigning
// sequences under the append lock instead would serialize group
// commit; the sort is the cheaper of the two.
func (e *shard) drainLive() []logRecord {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	recs := e.log
	e.log = nil
	if len(recs) > 0 {
		slices.SortFunc(recs, func(a, b logRecord) int { return cmp.Compare(a.commitSeq, b.commitSeq) })
		e.publish(func(v *zoneVersion) { v.grooming = recs })
	}
	return recs
}

// scanLog visits the committed log without draining it (live-zone
// reads).
func (e *shard) scanLog(visit func(rec logRecord)) {
	e.logMu.Lock()
	for _, rec := range e.log {
		visit(rec)
	}
	e.logMu.Unlock()
}

// commit is the one live-zone append: it makes rows durable in the
// shard's commit log, then publishes them, uncopied, to the committed
// in-memory log. An error from the log append means the rows are
// neither durable nor visible.
func (e *shard) commit(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	first, err := e.stageCommit(rows)
	if err != nil {
		return err
	}
	// The ack point: stageCommit returned, so the rows are as durable as
	// the sync policy promises and the commit is about to be acknowledged
	// to the caller. Freshness is measured from here to groom visibility.
	e.appendLog(rows, first, time.Now().UnixNano())
	return nil
}

// cloneRows copies every row, so the engine can keep the copies.
func cloneRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// liveCount reports the number of committed-but-ungroomed records
// (live-zone size).
func (e *shard) liveCount() int {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	return len(e.log)
}
