package wildfire

import (
	"time"

	"umzi/internal/keyenc"
	"umzi/internal/obs"
)

// Engine observability. Every shard owns an engineMetrics bundle: typed
// handles into an obs.Registry, labeled with the shard-qualified table
// name, so recording on hot paths is a direct atomic op with no registry
// lookup. A ShardedEngine carries its own
// bundle under the base table name for the query-level signals it owns
// (plan counts, latencies, cursor lifetimes); the per-shard write/groom
// signals live under each shard's name — which for a 1-shard table is
// the base name too, so both bundles resolve to the same handles and
// the table reports under one label. When no registry is supplied the
// bundle records into a private one, so handles are always non-nil and
// the hot paths never branch on configuration.

// planLabel maps a compiled query mode to its metric/trace label.
func planLabel(m queryMode) string {
	switch m {
	case modePointGet:
		return "point-get"
	case modeIndexScan:
		return "index-scan"
	case modeIndexOnly:
		return "index-only"
	default:
		return "exec"
	}
}

var planModes = []queryMode{modeExec, modePointGet, modeIndexScan, modeIndexOnly}

// engineMetrics is the per-table handle bundle. See DESIGN.md
// "Observability" for the metric catalog.
type engineMetrics struct {
	reg *obs.Registry

	// WAL / durable write path.
	walAppends      *obs.Counter
	walRows         *obs.Counter
	walCommitErrors *obs.Counter
	walFlushErrors  *obs.Counter
	walBatch        *obs.Histogram // records per segment (group-commit batch size)
	walSync         *obs.Histogram // segment write latency, ns
	walReclaimed    *obs.Counter
	walPruneErrors  *obs.Counter

	// Groomer.
	groomCycles   *obs.Counter
	groomDuration *obs.Histogram // ns
	groomRows     *obs.Histogram // records per cycle
	freshness     *obs.Histogram // commit-ack -> groomed-visibility, ns

	// Storage / cache (engine block cache).
	blockCacheHits *obs.Counter
	blockFetches   *obs.Counter

	// Analytical executor.
	execBlocksRead         *obs.Counter
	execBlocksSkipped      *obs.Counter
	execBlocksBloomSkipped *obs.Counter

	// Secondary-index verification.
	backChecks     *obs.Counter
	backCheckDrops *obs.Counter

	// Query front end.
	queryCount     map[queryMode]*obs.Counter
	queryLatency   map[queryMode]*obs.Histogram // time to first row, ns
	queryRows      *obs.Counter
	earlyCloses    *obs.Counter
	cursorLifetime *obs.Histogram // open -> close/exhaustion, ns
	releaseErrors  *obs.Counter
}

// newEngineMetrics registers (or re-binds, on reopen) the table's metric
// handles. A nil registry gets a private one: the engine is then fully
// instrumented but nothing is exposed, which is also what the overhead
// benchmark measures against a no-op (nil-handle) bundle.
func newEngineMetrics(reg *obs.Registry, table string) *engineMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.Labels{"table": table}
	m := &engineMetrics{
		reg:             reg,
		walAppends:      reg.Counter("wal_appends", "commit records appended to the shard log", l),
		walRows:         reg.Counter("wal_rows", "rows appended to the shard log", l),
		walCommitErrors: reg.Counter("wal_commit_errors", "commit-log appends that failed (sequences recorded as lost)", l),
		walFlushErrors:  reg.Counter("wal_flush_errors", "background/size-triggered log flushes that failed and will retry", l),
		walBatch:        reg.Histogram("wal_batch_records", "records per durable segment write (group-commit batch size)", "records", l),
		walSync:         reg.Histogram("wal_sync_ns", "segment write (sync) latency", "ns", l),
		walReclaimed:    reg.Counter("wal_segments_reclaimed", "log segments deleted below the groom watermark", l),
		walPruneErrors:  reg.Counter("wal_mark_prune_errors", "superseded watermark records whose delete failed (a failed listing counts once)", l),
		groomCycles:     reg.Counter("groom_cycles", "groom operations that produced a block", l),
		groomDuration:   reg.Histogram("groom_duration_ns", "groom cycle duration", "ns", l),
		groomRows:       reg.Histogram("groom_rows", "records groomed per cycle", "records", l),
		freshness:       reg.Histogram("groom_freshness_ns", "commit acknowledgment to groomed visibility", "ns", l),
		blockCacheHits:  reg.Counter("cache_block_hits", "data-block reads served from the in-memory block cache", l),
		blockFetches:    reg.Counter("cache_block_fetches", "data-block reads that went to shared storage", l),
		execBlocksRead:  reg.Counter("exec_blocks_read", "blocks scanned with data columns materialized", l),
		execBlocksSkipped: reg.Counter("exec_blocks_skipped",
			"blocks excluded by min/max synopses (timestamp or filter) or bloom filters", l),
		execBlocksBloomSkipped: reg.Counter("exec_blocks_bloom_skipped",
			"blocks excluded by per-column bloom filters (subset of exec_blocks_skipped)", l),
		backChecks:     reg.Counter("index_back_checks", "secondary-index candidates verified against the primary", l),
		backCheckDrops: reg.Counter("index_back_check_drops", "verified candidates dropped as superseded", l),
		queryCount:     make(map[queryMode]*obs.Counter, len(planModes)),
		queryLatency:   make(map[queryMode]*obs.Histogram, len(planModes)),
		queryRows:      reg.Counter("query_rows", "result rows streamed to callers", l),
		earlyCloses:    reg.Counter("query_early_closes", "query cursors closed before exhaustion", l),
		cursorLifetime: reg.Histogram("query_cursor_ns", "query cursor lifetime (open to close or exhaustion)", "ns", l),
		releaseErrors:  reg.Counter("stream_release_errors", "per-shard cursor release errors swallowed by cancelled stream workers", l),
	}
	for _, mode := range planModes {
		pl := obs.Labels{"table": table, "plan": planLabel(mode)}
		m.queryCount[mode] = reg.Counter("query_count", "queries run, by compiled plan", pl)
		m.queryLatency[mode] = reg.Histogram("query_latency_ns", "time from RunQuery to the first result row", "ns", pl)
	}
	return m
}

// onReleaseErr is the scatterStream release-error hook.
func (m *engineMetrics) onReleaseErr(error) { m.releaseErrors.Inc() }

// registerGauges wires the engine-state gauges: values read live at
// snapshot time. GaugeFunc re-registration replaces the closure, so a
// table closed and reopened in-process reports through the new engine.
func (e *shard) registerGauges() {
	l := obs.Labels{"table": e.table.Name}
	reg := e.mx.reg
	reg.GaugeFunc("wal_watermark_lag", "commit sequences not yet durably groomed (max commit sequence - WAL mark)", l,
		func() int64 { return int64(e.commitSeq.Load() - e.currentWALMark()) })
	reg.GaugeFunc("wal_segments", "durable log segments held", l,
		func() int64 { n, _ := e.wal.Stats(); return int64(n) })
	reg.GaugeFunc("wal_segment_bytes", "durable log bytes held", l,
		func() int64 { _, b := e.wal.Stats(); return b })
	reg.GaugeFunc("live_records", "committed-but-ungroomed records (live-zone size)", l,
		func() int64 { return int64(e.liveCount()) })
	reg.GaugeFunc("live_bytes", "estimated live-zone memory", l, e.liveBytes)
}

// liveBytes estimates the live zone's memory footprint: per-value struct
// overhead plus byte/string payload lengths, summed over every committed
// record awaiting grooming.
func (e *shard) liveBytes() int64 {
	var total int64
	for _, r := range e.replicas {
		r.scan(func(rec logRecord) {
			total += rowMemEstimate(rec.row)
		})
	}
	return total
}

// rowMemEstimate approximates one row's in-memory size: the Value tagged
// union is ~40 bytes (kind + num + slice header, padded), plus payload
// for bytes/string kinds.
func rowMemEstimate(row Row) int64 {
	n := int64(len(row)) * 40
	for _, v := range row {
		if k := v.Kind(); k == keyenc.KindBytes || k == keyenc.KindString {
			n += int64(len(v.Bytes()))
		}
	}
	return n
}

// instrumentRows wraps a query result cursor with the bundle's query
// metrics: plan count at open, time-to-first-row latency, rows streamed,
// cursor lifetime at close/exhaustion, and early closes. It also streams
// row counts into the query's trace, so trace totals settle exactly when
// the metrics do.
func (m *engineMetrics) instrumentRows(mode queryMode, tr *obs.QueryTrace, rows *QueryRows, start time.Time) *QueryRows {
	m.queryCount[mode].Inc()
	inner := rows.Cursor
	firstSeen := false
	first := func() {
		if !firstSeen {
			firstSeen = true
			m.queryLatency[mode].ObserveSince(start)
		}
	}
	finished := false
	finish := func(early bool) {
		if finished {
			return
		}
		finished = true
		m.cursorLifetime.ObserveSince(start)
		if early {
			m.earlyCloses.Inc()
		}
	}
	fetch := func() ([]keyenc.Value, bool, error) {
		if inner.Next() {
			first()
			m.queryRows.Inc()
			tr.AddRowsEmitted(1)
			return inner.Value(), true, nil
		}
		first()
		finish(false)
		return nil, false, inner.Err()
	}
	release := func() error {
		err := inner.Close()
		finish(true)
		return err
	}
	rows.Cursor = newCursor(fetch, release)
	return rows
}
