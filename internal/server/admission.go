package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"umzi"
)

// Write admission control — the serving-layer analogue of the resource
// isolation argument in the HTAP literature: OLTP ingest that outruns
// grooming degrades every analytical scan (the live zone grows without
// bound and the WAL replay tail lengthens), so the server refuses or
// queues new writes when the engine's own backpressure gauges cross
// thresholds, while reads keep flowing untouched.
//
// The signals come from the DB's metric registry, not the hot path: a
// sampler goroutine snapshots the registry on a short cadence and
// caches per-table pressure, so admit() on the commit path is a mutex
// and a map lookup. Sharded tables report per-shard gauges labeled
// "name/shard-NNN"; the sampler sums them per base table.

// AdmissionConfig configures write admission control. Zero thresholds
// disable the corresponding check; an all-zero config admits everything.
type AdmissionConfig struct {
	// MaxWALLag is the per-table ceiling on wal_watermark_lag (commit
	// sequences not yet durably groomed), summed across shards.
	MaxWALLag int64
	// MaxLiveRecords is the per-table ceiling on live_records (committed
	// but ungroomed rows), summed across shards.
	MaxLiveRecords int64
	// Queue makes over-threshold writes wait for pressure to clear (up
	// to QueueTimeout) instead of failing immediately.
	Queue bool
	// QueueTimeout bounds a queued write's wait; 0 means 2s.
	QueueTimeout time.Duration
	// SampleEvery is the pressure sampling cadence; 0 means 20ms.
	SampleEvery time.Duration
}

func (c AdmissionConfig) enabled() bool { return c.MaxWALLag > 0 || c.MaxLiveRecords > 0 }

// AdmissionError reports a write refused by admission control; it
// travels to clients as a StatusAdmission Done frame, where the client
// package rebuilds it so callers can errors.As and back off.
type AdmissionError struct {
	Table  string
	Reason string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("admission control: table %s: %s", e.Table, e.Reason)
}

type admission struct {
	cfg AdmissionConfig
	db  *umzi.DB
	mx  *serverMetrics

	mu        sync.Mutex
	pressured map[string]string // base table -> reason, rebuilt per sample
	signal    chan struct{}     // closed and replaced on every sample tick
	started   bool

	stopCh chan struct{}
	doneCh chan struct{}
}

func newAdmission(db *umzi.DB, cfg AdmissionConfig, mx *serverMetrics) *admission {
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 20 * time.Millisecond
	}
	return &admission{
		cfg:       cfg,
		db:        db,
		mx:        mx,
		pressured: make(map[string]string),
		signal:    make(chan struct{}),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
}

func (a *admission) start() {
	if !a.cfg.enabled() {
		return
	}
	a.mu.Lock()
	a.started = true
	a.mu.Unlock()
	a.sample() // prime before the first commit can ask
	go a.loop()
}

// stop ends the sampler and waits it out; a no-op when admission is
// disabled or start never ran.
func (a *admission) stop() {
	a.mu.Lock()
	started := a.started
	a.started = false
	a.mu.Unlock()
	if !started {
		return
	}
	close(a.stopCh)
	<-a.doneCh
}

func (a *admission) loop() {
	defer close(a.doneCh)
	t := time.NewTicker(a.cfg.SampleEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.sample()
		case <-a.stopCh:
			// Release any queued writers; admit re-checks and, with the
			// server context gone, they fail out of their own ctx select.
			a.publish(nil)
			return
		}
	}
}

// baseTable strips the sharding suffix off a metric's table label:
// "orders/shard-003" -> "orders".
func baseTable(label string) string {
	if i := strings.Index(label, "/shard-"); i >= 0 {
		return label[:i]
	}
	return label
}

// sample recomputes per-table pressure from one registry snapshot and
// wakes queued writers.
func (a *admission) sample() {
	snap := a.db.Metrics()
	walLag := map[string]int64{}
	liveRecs := map[string]int64{}
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		tbl := baseTable(m.Labels["table"])
		if tbl == "" {
			continue
		}
		switch m.Name {
		case "wal_watermark_lag":
			walLag[tbl] += m.Value
		case "live_records":
			liveRecs[tbl] += m.Value
		}
	}
	pressured := make(map[string]string)
	if a.cfg.MaxWALLag > 0 {
		for tbl, lag := range walLag {
			if lag > a.cfg.MaxWALLag {
				pressured[tbl] = fmt.Sprintf("wal_watermark_lag %d exceeds %d", lag, a.cfg.MaxWALLag)
			}
		}
	}
	if a.cfg.MaxLiveRecords > 0 {
		for tbl, n := range liveRecs {
			if n > a.cfg.MaxLiveRecords && pressured[tbl] == "" {
				pressured[tbl] = fmt.Sprintf("live_records %d exceeds %d", n, a.cfg.MaxLiveRecords)
			}
		}
	}
	a.publish(pressured)
}

// publish swaps in a new pressure map (nil keeps the old one) and wakes
// every queued writer to re-check.
func (a *admission) publish(pressured map[string]string) {
	a.mu.Lock()
	if pressured != nil {
		a.pressured = pressured
	}
	old := a.signal
	a.signal = make(chan struct{})
	a.mu.Unlock()
	close(old)
}

// check returns the pressure reason for a table ("" when clear) and the
// channel that will close at the next sample.
func (a *admission) check(table string) (string, chan struct{}) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pressured[table], a.signal
}

// admit decides one write against one table: nil to proceed, an
// *AdmissionError to refuse. In queue mode it waits — bounded by
// QueueTimeout and the context — for pressure to clear, re-checking on
// every sampler tick.
func (a *admission) admit(ctx context.Context, table string) error {
	if !a.cfg.enabled() {
		return nil
	}
	reason, signal := a.check(table)
	if reason == "" {
		return nil
	}
	if !a.cfg.Queue {
		return &AdmissionError{Table: table, Reason: reason}
	}
	a.mx.queueDepth.Add(1)
	defer a.mx.queueDepth.Add(-1)
	deadline := time.NewTimer(a.cfg.QueueTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-signal:
			reason, signal = a.check(table)
			if reason == "" {
				return nil
			}
		case <-deadline.C:
			return &AdmissionError{Table: table, Reason: reason + " (queue timeout)"}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
