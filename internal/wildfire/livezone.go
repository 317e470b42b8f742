package wildfire

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// The live zone (§2.1): a transaction's uncommitted upserts are its
// side-log, which here is umzi.Tx's staging. At commit, shard.commit
// makes each shard's share durable in the shard's commit log
// (internal/wal) and then publishes it to the replica's committed
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

// replica is one multi-master shard replica with its own committed log.
type replica struct {
	id int

	mu  sync.Mutex
	log []logRecord
}

// appendWithSeqs publishes rows to the committed log; row i carries the
// pre-assigned commit sequence base+i. Sequences are assigned before
// the durable log append, so by the time a row is visible here it is
// already as durable as the sync policy promises. ack is the commit
// acknowledgment time in Unix nanoseconds (0 for replayed rows).
func (r *replica) appendWithSeqs(rows []Row, base uint64, ack int64) {
	r.mu.Lock()
	for i, row := range rows {
		r.log = append(r.log, logRecord{row: row, commitSeq: base + uint64(i), ack: ack})
	}
	r.mu.Unlock()
}

// requeue puts drained records back (a groom that failed after draining
// must not lose them: they are acknowledged and, per policy, durable).
func (r *replica) requeue(recs []logRecord) {
	r.mu.Lock()
	r.log = append(r.log, recs...)
	r.mu.Unlock()
}

// drainLive moves every replica's committed records, merged in commit
// order (§2.1 "merges, in the time order, transaction logs from shard
// replicas"), into the zone version's grooming set and returns them. It
// holds every replica lock until the version is published, so a reader
// that finds a record gone from its log loads a version that holds it.
func (e *shard) drainLive() []logRecord {
	var recs []logRecord
	for _, r := range e.replicas {
		r.mu.Lock()
		defer r.mu.Unlock()
		recs = append(recs, r.log...)
		r.log = nil
	}
	if len(recs) > 0 {
		slices.SortFunc(recs, func(a, b logRecord) int { return cmp.Compare(a.commitSeq, b.commitSeq) })
		e.publish(func(v *zoneVersion) { v.grooming = recs })
	}
	return recs
}

// scan visits the committed log without draining it (live-zone reads).
func (r *replica) scan(visit func(rec logRecord)) {
	r.mu.Lock()
	for _, rec := range r.log {
		visit(rec)
	}
	r.mu.Unlock()
}

// size returns the number of records awaiting grooming.
func (r *replica) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}

// commit is the one live-zone append: it makes rows durable in the
// shard's commit log, then publishes them, uncopied, to the replica's
// committed log. An error from the log append means the rows are
// neither durable nor visible.
func (e *shard) commit(replica int, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	first, err := e.stageCommit(replica, rows)
	if err != nil {
		return err
	}
	// The ack point: stageCommit returned, so the rows are as durable as
	// the sync policy promises and the commit is about to be acknowledged
	// to the caller. Freshness is measured from here to groom visibility.
	e.replicas[replica].appendWithSeqs(rows, first, time.Now().UnixNano())
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

// liveCount reports the number of committed-but-ungroomed records across
// all replicas (live-zone size).
func (e *shard) liveCount() int {
	n := 0
	for _, r := range e.replicas {
		n += r.size()
	}
	return n
}
