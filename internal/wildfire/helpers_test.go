package wildfire

import (
	"context"
	"fmt"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
)

// openShard opens a one-shard table over cfg.Store through the
// production constructor and returns its shard, so every test shard is
// validated, defaulted and named exactly as a table's shards are.
// Closing the shard is the caller's business; a crash test drops it
// unclosed.
func openShard(cfg ShardedConfig) (*shard, error) {
	cfg.Shards = 1
	s, err := NewShardedEngine(cfg)
	if err != nil {
		return nil, err
	}
	return s.shards[0], nil
}

// upsert commits copies of rows to a test shard. The table's Commit
// checks the rows; shard tests pass valid ones.
func (e *shard) upsert(rows ...Row) error {
	return e.commit(cloneRows(rows))
}

// Materializing test helpers over the one ordered index stream: tests
// compare whole result sets, production code streams. The shard helpers
// drain one shard's indexStream; the table helpers go through the
// coordinator's tableIndexStream. A scan helper's rows are whole
// records (fetched by RID), an index-only helper's the decoded entries
// (equality ++ sort ++ included). The *Limit variants stop after limit
// rows (0 = all), bounding the index walk as an exact query scan does.

// fetchRecord is the record-level row step.
func fetchRecord(ctx context.Context, e *shard, ve verifiedEntry) (Record, bool, error) {
	rec, err := e.fetch(ctx, ve.entry.RID)
	return rec, err == nil, err
}

// decodedEntry is the index-only row step.
func decodedEntry(_ context.Context, _ *shard, ve verifiedEntry) ([]keyenc.Value, bool, error) {
	return ve.flat, true, nil
}

func helperScan(index string, eq, sortLo, sortHi []keyenc.Value, limit int, decode bool) indexScan {
	return indexScan{index: index, eq: eq, lo: sortLo, hi: sortHi, limit: limit, exact: true, decode: decode}
}

// drainShard materializes one shard's index stream.
func drainShard[T any](e *shard, sc indexScan, opts QueryOptions, step rowStep[T]) ([]T, error) {
	items, err := drainCursor(indexStream(context.Background(), e, sc, opts, step))
	var out []T
	for _, it := range items {
		out = append(out, it.val)
	}
	return out, err
}

func scanOn(e *shard, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) ([]Record, error) {
	return scanOnLimit(e, index, eq, sortLo, sortHi, opts, 0)
}

func scanOnLimit(e *shard, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions, limit int) ([]Record, error) {
	return drainShard(e, helperScan(index, eq, sortLo, sortHi, limit, false), opts, fetchRecord)
}

func indexOnlyOn(e *shard, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) ([][]keyenc.Value, error) {
	return drainShard(e, helperScan(index, eq, sortLo, sortHi, 0, true), opts, decodedEntry)
}

// getOn is a point get on the primary, or on a secondary the newest
// visible version of the first match of a one-key scan: eq and sortv
// then cover the index's declared equality and sort columns.
func getOn(e *shard, index string, eq, sortv []keyenc.Value, opts QueryOptions) (Record, bool, error) {
	if index == "" {
		return e.getOn(context.Background(), eq, sortv, opts)
	}
	return firstRecord(scanOnLimit(e, index, eq, sortv, sortv, opts, 1))
}

// execute runs an analytical plan on one shard's executePlan primitive
// and finalizes the partial — the executor with QueryOptions exposed,
// below the QuerySpec compile step.
func execute(e *shard, p exec.Plan, opts QueryOptions) (*exec.Result, error) {
	bound, err := p.Bind(e.table.Columns)
	if err != nil {
		return nil, err
	}
	part, err := e.executePlan(context.Background(), bound, p.Filter, opts)
	if err != nil {
		return nil, err
	}
	return bound.Finalize(part), nil
}

func tableScanOn(s *ShardedEngine, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) ([]Record, error) {
	return tableScanOnLimit(s, index, eq, sortLo, sortHi, opts, 0)
}

func tableScanOnLimit(s *ShardedEngine, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions, limit int) ([]Record, error) {
	return drainCursor(tableIndexStream(context.Background(), s, helperScan(index, eq, sortLo, sortHi, limit, false), opts, fetchRecord))
}

func tableIndexOnlyOn(s *ShardedEngine, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) ([][]keyenc.Value, error) {
	return tableIndexOnlyOnLimit(s, index, eq, sortLo, sortHi, opts, 0)
}

func tableIndexOnlyOnLimit(s *ShardedEngine, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions, limit int) ([][]keyenc.Value, error) {
	return drainCursor(tableIndexStream(context.Background(), s, helperScan(index, eq, sortLo, sortHi, limit, true), opts, decodedEntry))
}

// tableGetOn is getOn through the coordinator.
func tableGetOn(s *ShardedEngine, index string, eq, sortv []keyenc.Value, opts QueryOptions) (Record, bool, error) {
	if index == "" {
		return s.get(context.Background(), eq, sortv, opts)
	}
	return firstRecord(tableScanOnLimit(s, index, eq, sortv, sortv, opts, 1))
}

// tableExecute is execute on every shard of a table through the
// coordinator's execPartials.
func tableExecute(s *ShardedEngine, p exec.Plan, opts QueryOptions) (*exec.Result, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("wildfire: engine closed")
	}
	bound, err := p.Bind(s.table.Columns)
	if err != nil {
		return nil, err
	}
	opts.TS = s.resolveTS(opts)
	parts, err := s.execPartials(context.Background(), bound, p.Filter, opts)
	if err != nil {
		return nil, err
	}
	return bound.Finalize(parts...), nil
}

func firstRecord(recs []Record, err error) (Record, bool, error) {
	if err != nil || len(recs) == 0 {
		return Record{}, false, err
	}
	return recs[0], true, nil
}

// drainCursor materializes a cursor. A release-path failure surfaces
// when iteration itself succeeded (exhaustion auto-closes, so Err
// already carries it; the explicit Close covers an early break).
func drainCursor[T any](cur *Cursor[T], err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	var out []T
	for cur.Next() {
		out = append(out, cur.Value())
	}
	err = cur.Err()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	return out, err
}
