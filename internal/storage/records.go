package storage

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Sequenced records. Shared storage has no in-place update, so a value
// that changes over time — the index's evolve watermark (§5.5), a
// catalog, the groom watermark — is a sequence of write-once records
// named <prefix><%012d seq>, and the newest readable record wins.
// LoadRecord and WriteRecord are the one implementation of that rule.

// RecordName returns the name of record seq under prefix.
func RecordName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s%012d", prefix, seq)
}

// LoadRecord walks the records under prefix newest to oldest and
// returns the first one decode accepts (ok). A record decode rejects is
// an interrupted write and is skipped, and so is one that vanished
// between List and Get (ErrNotExist: a racing prune). Any other Get
// error is returned: a transient read failure must not fall back to an
// older record without a word.
//
// seq is the newest listed sequence whether or not that record decoded:
// its name is taken, so the caller's next WriteRecord must use a larger
// one. seq is 0 only when the prefix is empty, so ok == false with
// seq > 0 means records exist but none is readable.
func LoadRecord[T any](store ObjectStore, prefix string, decode func([]byte) (T, error)) (rec T, seq uint64, ok bool, err error) {
	names, err := store.List(prefix)
	if err != nil || len(names) == 0 {
		return rec, 0, false, err
	}
	newest := names[len(names)-1]
	if seq, err = strconv.ParseUint(strings.TrimPrefix(newest, prefix), 10, 64); err != nil {
		return rec, 0, false, fmt.Errorf("storage: record %s has no sequence number", newest)
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := store.Get(names[i])
		if errors.Is(err, ErrNotExist) {
			continue
		}
		if err != nil {
			return rec, seq, false, fmt.Errorf("storage: reading record %s: %w", names[i], err)
		}
		if r, err := decode(data); err == nil {
			return r, seq, true, nil
		}
	}
	return rec, seq, false, nil
}

// WriteRecord puts data as record seq under prefix, then deletes all but
// the two newest records. A failed prune leaves only superseded records
// behind, which the next write retries, so it does not fail the write:
// pruneFailures counts the failed deletes (and a failed List as one) for
// the caller to report.
func WriteRecord(store ObjectStore, prefix string, seq uint64, data []byte) (pruneFailures int, err error) {
	if err := store.Put(RecordName(prefix, seq), data); err != nil {
		return 0, err
	}
	names, err := store.List(prefix)
	if err != nil {
		return 1, nil
	}
	for _, n := range names[:max(len(names)-2, 0)] {
		if store.Delete(n) != nil {
			pruneFailures++
		}
	}
	return pruneFailures, nil
}
