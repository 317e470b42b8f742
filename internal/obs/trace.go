package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// QueryTrace captures one query's execution profile: the plan the
// compiler chose, per-shard spans, and cross-shard totals for blocks
// read vs. synopsis-skipped, blocks fetched, live-zone union size,
// executor reconciliation work (winner inserts, shadow probes and
// checks), and secondary-index rows back-checked against the primary.
// A trace is attached to a query with Query.Explain(); the engine
// writes into it from every shard worker concurrently, so counters are
// atomic and spans append under a mutex. Every method is nil-receiver
// safe: an untraced query pays a nil check per call site and nothing
// else.
type QueryTrace struct {
	mu    sync.Mutex
	plan  string
	index string
	spans []TraceSpan

	blocksRead       atomic.Int64
	blocksSkipped    atomic.Int64
	blocksFetched    atomic.Int64
	liveUnion        atomic.Int64
	backChecked      atomic.Int64
	backCheckDropped atomic.Int64
	rowsEmitted      atomic.Int64
	winnerInserts    atomic.Int64
	shadowProbes     atomic.Int64
	shadowChecks     atomic.Int64
}

// TraceSpan is one shard's slice of a query. BlocksBloomSkipped is
// always 0: blocks carry no per-column filters, and the field stays only
// for readers that still decode it.
type TraceSpan struct {
	Shard              string        `json:"shard"`
	BlocksRead         int64         `json:"blocks_read"`
	BlocksSkipped      int64         `json:"blocks_skipped"`
	BlocksBloomSkipped int64         `json:"blocks_bloom_skipped"`
	BlocksFetched      int64         `json:"blocks_fetched"`
	LiveUnion          int64         `json:"live_union"`
	WinnerInserts      int64         `json:"winner_inserts"`
	ShadowProbes       int64         `json:"shadow_probes"`
	ShadowChecks       int64         `json:"shadow_checks"`
	Elapsed            time.Duration `json:"elapsed_ns"`
}

// NewQueryTrace returns an empty trace ready to attach to a query.
func NewQueryTrace() *QueryTrace { return &QueryTrace{} }

// SetPlan records the compiled plan mode ("point-get", "index-scan",
// "index-only", "exec") and the chosen index name, if any.
func (t *QueryTrace) SetPlan(plan, index string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.plan, t.index = plan, index
	t.mu.Unlock()
}

// AddSpan appends one shard's span.
func (t *QueryTrace) AddSpan(s TraceSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// AddBlocksRead counts blocks fetched and scanned for the query.
func (t *QueryTrace) AddBlocksRead(n int64) {
	if t != nil {
		t.blocksRead.Add(n)
	}
}

// AddBlocksSkipped counts blocks the min/max synopsis excluded.
func (t *QueryTrace) AddBlocksSkipped(n int64) {
	if t != nil {
		t.blocksSkipped.Add(n)
	}
}

// AddBlocksFetched counts blocks the executor fetched (from the block
// cache or storage): every pending block, and the post blocks no
// synopsis held in memory excluded before the fetch.
func (t *QueryTrace) AddBlocksFetched(n int64) {
	if t != nil {
		t.blocksFetched.Add(n)
	}
}

// AddLiveUnion counts live-zone rows unioned over the groomed zones.
func (t *QueryTrace) AddLiveUnion(n int64) {
	if t != nil {
		t.liveUnion.Add(n)
	}
}

// AddBackChecked counts secondary-index entries verified against the
// primary at the query timestamp.
func (t *QueryTrace) AddBackChecked(n int64) {
	if t != nil {
		t.backChecked.Add(n)
	}
}

// AddBackCheckDropped counts back-checked entries the primary rejected
// (superseded or deleted at the query timestamp).
func (t *QueryTrace) AddBackCheckDropped(n int64) {
	if t != nil {
		t.backCheckDropped.Add(n)
	}
}

// AddRowsEmitted counts rows actually streamed to the caller.
func (t *QueryTrace) AddRowsEmitted(n int64) {
	if t != nil {
		t.rowsEmitted.Add(n)
	}
}

// AddWinnerInserts counts row versions the executor reconciled through
// its per-key winner map (pending groomed blocks and the live zone;
// post-groomed rows resolve visibility from endTS and never enter it).
func (t *QueryTrace) AddWinnerInserts(n int64) {
	if t != nil {
		t.winnerInserts.Add(n)
	}
}

// AddShadowProbes counts post-groomed rows the executor probed against
// the pending/live shadow by primary-key fingerprint: every selected
// post row, whenever the shadow holds a key.
func (t *QueryTrace) AddShadowProbes(n int64) {
	if t != nil {
		t.shadowProbes.Add(n)
	}
}

// AddShadowChecks counts post-groomed rows whose primary-key fingerprint
// hit the pending/live shadow, so the executor compared their keys
// exactly; a row whose fingerprint misses is kept with no key work.
func (t *QueryTrace) AddShadowChecks(n int64) {
	if t != nil {
		t.shadowChecks.Add(n)
	}
}

// TraceSnapshot is an immutable copy of a QueryTrace.
// BlocksBloomSkipped is always 0, as in TraceSpan.
type TraceSnapshot struct {
	Plan               string      `json:"plan"`
	Index              string      `json:"index,omitempty"`
	BlocksRead         int64       `json:"blocks_read"`
	BlocksSkipped      int64       `json:"blocks_skipped"`
	BlocksBloomSkipped int64       `json:"blocks_bloom_skipped"`
	BlocksFetched      int64       `json:"blocks_fetched"`
	LiveUnion          int64       `json:"live_union"`
	BackChecked        int64       `json:"back_checked"`
	BackCheckDropped   int64       `json:"back_check_dropped"`
	RowsEmitted        int64       `json:"rows_emitted"`
	WinnerInserts      int64       `json:"winner_inserts"`
	ShadowProbes       int64       `json:"shadow_probes"`
	ShadowChecks       int64       `json:"shadow_checks"`
	Spans              []TraceSpan `json:"spans,omitempty"`
}

// Snapshot copies the trace. Counts settle as the query's rows are
// consumed; snapshot after draining the cursor for final numbers.
func (t *QueryTrace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	spans := make([]TraceSpan, len(t.spans))
	copy(spans, t.spans)
	plan, index := t.plan, t.index
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Shard < spans[j].Shard })
	return TraceSnapshot{
		Plan:             plan,
		Index:            index,
		BlocksRead:       t.blocksRead.Load(),
		BlocksSkipped:    t.blocksSkipped.Load(),
		BlocksFetched:    t.blocksFetched.Load(),
		LiveUnion:        t.liveUnion.Load(),
		BackChecked:      t.backChecked.Load(),
		BackCheckDropped: t.backCheckDropped.Load(),
		RowsEmitted:      t.rowsEmitted.Load(),
		WinnerInserts:    t.winnerInserts.Load(),
		ShadowProbes:     t.shadowProbes.Load(),
		ShadowChecks:     t.shadowChecks.Load(),
		Spans:            spans,
	}
}

// String renders the trace human-readably, one line plus one per span.
func (t *QueryTrace) String() string {
	if t == nil {
		return "<no trace>"
	}
	s := t.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "plan=%s", s.Plan)
	if s.Index != "" {
		fmt.Fprintf(&b, " index=%s", s.Index)
	}
	fmt.Fprintf(&b, " blocks=%d read/%d skipped, %d fetched live_union=%d winner_inserts=%d shadow_probes=%d shadow_checks=%d back_checked=%d (%d dropped) rows=%d",
		s.BlocksRead, s.BlocksSkipped, s.BlocksFetched, s.LiveUnion, s.WinnerInserts, s.ShadowProbes, s.ShadowChecks, s.BackChecked, s.BackCheckDropped, s.RowsEmitted)
	for _, sp := range s.Spans {
		fmt.Fprintf(&b, "\n  shard %s: blocks=%d read/%d skipped, %d fetched live_union=%d winner_inserts=%d shadow_probes=%d shadow_checks=%d in %s",
			sp.Shard, sp.BlocksRead, sp.BlocksSkipped, sp.BlocksFetched, sp.LiveUnion, sp.WinnerInserts, sp.ShadowProbes, sp.ShadowChecks, sp.Elapsed)
	}
	return b.String()
}
