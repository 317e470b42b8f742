package wildfire

import (
	"context"
	"fmt"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
)

// Materializing test helpers over the record-level primitives: tests
// compare whole result sets, production code streams.

// streamer is the record-level scan surface a shard and a table share.
type streamer interface {
	ScanStreamOn(ctx context.Context, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) (*Cursor[Record], error)
	IndexOnlyStreamOn(ctx context.Context, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) (*Cursor[[]keyenc.Value], error)
}

func scanOn(r streamer, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) ([]Record, error) {
	return drainCursor(r.ScanStreamOn(context.Background(), index, eq, sortLo, sortHi, opts))
}

func indexOnlyOn(r streamer, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) ([][]keyenc.Value, error) {
	return drainCursor(r.IndexOnlyStreamOn(context.Background(), index, eq, sortLo, sortHi, opts))
}

func getOn(r streamer, index string, eq, sortv []keyenc.Value, opts QueryOptions) (Record, bool, error) {
	switch r := r.(type) {
	case *Engine:
		return r.GetOnContext(context.Background(), index, eq, sortv, opts)
	case *ShardedEngine:
		if index == "" {
			return r.get(context.Background(), eq, sortv, opts)
		}
	}
	// A table has no secondary get: first match of a one-key scan.
	recs, err := scanOn(r, index, eq, sortv, sortv, withLimit(opts, 1))
	if err != nil || len(recs) == 0 {
		return Record{}, false, err
	}
	return recs[0], true, nil
}

// execute runs an analytical plan on one shard's executePlan primitive,
// or on every shard of a table through the coordinator's execPartials,
// and finalizes the partials — the executor with QueryOptions exposed,
// below the QuerySpec compile step.
func execute(r streamer, p exec.Plan, opts QueryOptions) (*exec.Result, error) {
	ctx := context.Background()
	switch r := r.(type) {
	case *Engine:
		bound, err := p.Bind(r.table.Columns)
		if err != nil {
			return nil, err
		}
		part, err := r.executePlan(ctx, bound, p.Filter, opts)
		if err != nil {
			return nil, err
		}
		return bound.Finalize(part), nil
	case *ShardedEngine:
		if r.closed.Load() {
			return nil, fmt.Errorf("wildfire: engine closed")
		}
		bound, err := p.Bind(r.table.Columns)
		if err != nil {
			return nil, err
		}
		opts.TS = r.resolveTS(opts)
		parts, err := r.execPartials(ctx, bound, p.Filter, opts)
		if err != nil {
			return nil, err
		}
		return bound.Finalize(parts...), nil
	}
	return nil, fmt.Errorf("execute: unsupported %T", r)
}
