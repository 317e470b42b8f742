package bench

import (
	"fmt"
	"sync"
	"time"

	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// Figure S3 (extension): the durable write path. Wildfire acknowledges
// a transaction only once it is in the shard's commit log (§2.1 — "the
// log is the database"); the cost of that promise is one durable
// segment write, and group commit is what makes it affordable: with a
// slow durability device, concurrent committers share one segment
// write instead of queueing one each. This experiment sweeps the sync
// policy (off / interval / per-commit, with and without an explicit
// group-commit window) against the number of concurrent writers and
// reports ingest throughput. The storage latency model plays the fsync
// role so the sweep is deterministic across machines.

// walCell describes one x-axis policy cell of Figure S3.
type walCell struct {
	label string
	opts  wildfire.DurabilityOptions
}

// WALDeviceLatency is the simulated durability-device cost of Figure
// S3: every segment write pays it once, which is exactly what group
// commit amortizes across concurrent committers.
func WALDeviceLatency() storage.LatencyModel {
	return storage.LatencyModel{PerOp: 2 * time.Millisecond}
}

func walCells() []walCell {
	return []walCell{
		{"off", wildfire.DurabilityOptions{SyncPolicy: wildfire.SyncOff}},
		{"interval 5ms", wildfire.DurabilityOptions{SyncPolicy: wildfire.SyncInterval, SyncInterval: 5 * time.Millisecond}},
		{"per-commit", wildfire.DurabilityOptions{SyncPolicy: wildfire.SyncPerCommit}},
		{"per-commit +1ms window", wildfire.DurabilityOptions{SyncPolicy: wildfire.SyncPerCommit, GroupCommitWindow: time.Millisecond}},
	}
}

// WALIngest runs writers concurrent committers of commits transactions
// (rowsPer rows each) against a fresh single-shard engine under the
// given durability options, returning rows ingested per second. The
// root BenchmarkGroupCommit reuses it so the Go benchmark and the
// Figure S3 sweep measure the same workload.
func WALIngest(name string, opts wildfire.DurabilityOptions, writers, commits, rowsPer int, lat storage.LatencyModel) (float64, error) {
	table := wildfire.TableDef{
		Name: name,
		Columns: []wildfire.TableColumn{
			{Name: "writer", Kind: keyenc.KindInt64},
			{Name: "seq", Kind: keyenc.KindInt64},
			{Name: "payload", Kind: keyenc.KindInt64},
		},
		PrimaryKey: []string{"writer", "seq"},
		ShardKey:   []string{"writer"},
	}
	cfg := wildfire.ShardedConfig{
		Table:      table,
		Index:      wildfire.IndexSpec{Equality: []string{"writer"}, Sort: []string{"seq"}},
		Shards:     1,
		Store:      storage.NewMemStore(lat),
		Durability: opts,
	}
	eng, err := wildfire.NewShardedEngine(cfg)
	if err != nil {
		return 0, err
	}
	defer eng.Close()

	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < commits; c++ {
				rows := make([]wildfire.Row, rowsPer)
				for i := range rows {
					rows[i] = wildfire.Row{
						keyenc.I64(int64(w)),
						keyenc.I64(int64(c*rowsPer + i)),
						keyenc.I64(int64(c)),
					}
				}
				if err := eng.UpsertRows(rows...); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total := float64(writers * commits * rowsPer)
	return total / elapsed, nil
}

// FigS3GroupCommit sweeps sync policy x concurrent writers and reports
// ingest throughput normalized to the no-sync policy at each writer
// count (1.0 = whatever that writer count achieves with durability
// off). The acceptance claim of the experiment: with >= 8 writers,
// per-commit durability under group commit lands within a small factor
// of the no-sync ceiling — instead of the ~1/batch-size cliff naive
// per-commit syncing would take — because every segment write is
// amortized over the whole group.
func FigS3GroupCommit(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Figure S3",
		Title:    "Ingest throughput vs sync policy and group commit (extension)",
		XLabel:   "sync policy",
		YLabel:   "throughput normalized to SyncOff at the same writer count",
		Baseline: "SyncOff (no durability) at each writer count",
	}
	writers := s.WALWriters
	if len(writers) == 0 {
		writers = []int{1, 8}
	}
	commits := s.WALCommits
	if commits <= 0 {
		commits = 24
	}
	rowsPer := s.WALRowsPerCommit
	if rowsPer <= 0 {
		rowsPer = 4
	}
	// PerOp plays the fsync: every segment write costs this much, which
	// is what group commit amortizes. It is deliberately coarse (a
	// spinning-disk-class sync) so sleep granularity noise stays small
	// relative to the signal.
	lat := WALDeviceLatency()

	cells := walCells()
	for _, c := range cells {
		res.X = append(res.X, c.label)
	}
	// The group-commit claim compares per-commit durability under
	// concurrency against the naive baseline: a single committer paying
	// the full device sync alone per transaction.
	var perCommit1, perCommitN, offN float64
	maxWriters := writers[len(writers)-1]
	for _, w := range writers {
		series := Series{Name: fmt.Sprintf("%d writers", w)}
		var off float64
		for ci, c := range cells {
			var sum float64
			for rep := 0; rep < s.Reps; rep++ {
				tput, err := WALIngest(fmt.Sprintf("s3w%dc%dr%d", w, ci, rep), c.opts, w, commits, rowsPer, lat)
				if err != nil {
					return nil, err
				}
				sum += tput
			}
			tput := sum / float64(s.Reps)
			if ci == 0 {
				off = tput
			}
			if c.opts.SyncPolicy == wildfire.SyncPerCommit {
				if w == 1 && (perCommit1 == 0 || tput < perCommit1) {
					perCommit1 = tput // naive baseline: the slower 1-writer per-commit cell
				}
				if w == maxWriters && tput > perCommitN {
					perCommitN = tput // best group-commit configuration
					offN = off
				}
			}
			if off > 0 {
				series.Y = append(series.Y, tput/off)
			} else {
				series.Y = append(series.Y, 0)
			}
		}
		res.Series = append(res.Series, series)
	}
	if perCommit1 > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"group commit: per-commit durability at %d writers reaches %.1fx the single-writer per-commit rate (%.0f vs %.0f rows/s; acceptance: >=5x with >=8 writers) and %.0f%% of the no-sync ceiling",
			maxWriters, perCommitN/perCommit1, perCommitN, perCommit1, 100*perCommitN/offN))
	}
	res.Notes = append(res.Notes,
		"per-commit columns would sit near 1/(rows per segment write) without group commit: every committer would pay the full device latency alone",
		"interval sync tracks SyncOff: durability is deferred to the background flusher (bounded loss window)")
	return res, nil
}
