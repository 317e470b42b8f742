package wildfire

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// The live zone (§2.1): transactions append uncommitted changes to a
// local side-log; on commit the side-log is made durable in the shard's
// commit log (internal/wal) and then published to the replica's
// committed in-memory log with its tentative commit sequences. The
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
func (e *Engine) drainLive() []logRecord {
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

// Txn is a transaction: upserts accumulate in a side-log and become
// visible (to grooming and live-zone scans) only at Commit. Wildfire
// treats every insert/update/delete as an upsert on the primary key with
// last-writer-wins semantics for concurrent updates (§2.1).
type Txn struct {
	eng      *Engine
	replica  *replica
	sidelog  []Row
	done     bool
	readOnly bool
}

// Begin starts a transaction against the given shard replica. Any replica
// of a shard can ingest data (multi-master).
func (e *Engine) Begin(replicaID int) (*Txn, error) {
	if replicaID < 0 || replicaID >= len(e.replicas) {
		return nil, fmt.Errorf("wildfire: replica %d out of range (%d replicas)", replicaID, len(e.replicas))
	}
	return &Txn{eng: e, replica: e.replicas[replicaID]}, nil
}

// Upsert stages one row. The row is validated eagerly so a malformed
// write fails at the call site, not at commit.
func (tx *Txn) Upsert(row Row) error {
	if tx.done {
		return fmt.Errorf("wildfire: transaction already finished")
	}
	if err := tx.eng.table.validateRow(row); err != nil {
		return err
	}
	cp := make(Row, len(row))
	copy(cp, row)
	tx.sidelog = append(tx.sidelog, cp)
	return nil
}

// Commit publishes the side-log to the replica's committed log with
// tentative commit times; the groomer later resets beginTS so the commit
// effectively happens at groom time (§2.1).
func (tx *Txn) Commit() error {
	return tx.CommitContext(context.Background())
}

// CommitContext is Commit honoring a context: a cancelled context
// aborts the transaction before anything becomes visible. Once past the
// check the commit runs to completion — the side-log is appended to the
// shard's durable commit log (per-commit sync joins a group commit and
// returns only after the shared segment write lands) and then published
// to the replica's committed log; an error from the log append means
// the rows are neither durable nor visible.
func (tx *Txn) CommitContext(ctx context.Context) error {
	if tx.done {
		return fmt.Errorf("wildfire: transaction already finished")
	}
	if err := ctx.Err(); err != nil {
		tx.Abort()
		return err
	}
	tx.done = true
	if len(tx.sidelog) == 0 {
		return nil
	}
	first, err := tx.eng.stageCommit(tx.replica.id, tx.sidelog)
	if err != nil {
		tx.sidelog = nil
		return err
	}
	// The ack point: stageCommit returned, so the rows are as durable as
	// the sync policy promises and the commit is about to be acknowledged
	// to the caller. Freshness is measured from here to groom visibility.
	tx.replica.appendWithSeqs(tx.sidelog, first, time.Now().UnixNano())
	tx.sidelog = nil
	return nil
}

// Abort discards the side-log.
func (tx *Txn) Abort() {
	tx.done = true
	tx.sidelog = nil
}

// UpsertRows is a convenience that runs one auto-committed transaction.
func (e *Engine) UpsertRows(replicaID int, rows ...Row) error {
	tx, err := e.Begin(replicaID)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := tx.Upsert(r); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// LiveCount reports the number of committed-but-ungroomed records across
// all replicas (live-zone size).
func (e *Engine) LiveCount() int {
	n := 0
	for _, r := range e.replicas {
		n += r.size()
	}
	return n
}
