package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"umzi"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is the metrics of one run, by name.
type metricSet map[string]metric

// set records a metric; a value that is not a number (no samples, zero
// divided by zero) is recorded as 0 so the result stays valid JSON.
func (m metricSet) set(name string, v float64, unit string) {
	if !isFinite(v) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Sizes     workload           `json:"sizes"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	OpHash    string             `json:"op_hash"` // FNV-1a of every (key, version) issued, in order
	Metrics   metricSet          `json:"metrics"`
	Cells     map[string]summary `json:"cells"` // sample counts, tails, per-round spread
	// Breakdown is a traced run's time by layer for an aggregate, a scan
	// and a stream pass, ns per operation.
	Breakdown map[string]map[string]float64 `json:"breakdown,omitempty"`
	WallS     float64                       `json:"wall_s"`
}

// phaseTimes are the stage times of the ingest phase; on the inline
// workloads they sum to its wall time.
type phaseTimes struct {
	wall, commit, groom, post, sync time.Duration
	grooms, posts, syncs            []float64 // ns per call
	groomedRows                     int64
	rows                            int64       // acked
	store                           storeCounts // traffic of the phase
	late                            []float64
}

// readTotals are the read phase's totals over its measured rounds.
type readTotals struct {
	ops        int
	wall       time.Duration
	roundRates []float64 // ops/s per measured round
	cache      umzi.BlockCacheStats
	ssdHits    int64
	ssdMisses  int64
	store      storeCounts
	spans      int       // spans recorded during the measured rounds
	liveUnion  []float64 // rows unioned from the live zone per probe
}

// readMark is the state of the caches and counters when the measured
// rounds begin; since turns it into the rounds' own traffic.
type readMark struct {
	cache umzi.BlockCacheStats
	ssd   [2]int64
	store storeCounts
	spans int
}

func (r *runner) mark() readMark {
	s := r.e.ssd.Stats()
	return readMark{r.e.tbl.BlockCacheStats(), [2]int64{s.Hits, s.Misses}, r.e.store.counts(), r.tr.count()}
}

func (r *runner) since(m readMark, tot *readTotals) {
	now := r.mark()
	tot.cache = now.cache
	tot.cache.Hits -= m.cache.Hits
	tot.cache.Misses -= m.cache.Misses
	tot.cache.Evictions -= m.cache.Evictions
	tot.cache.Dedups -= m.cache.Dedups
	tot.ssdHits, tot.ssdMisses = now.ssd[0]-m.ssd[0], now.ssd[1]-m.ssd[1]
	tot.store = now.store.sub(m.store)
	tot.spans = now.spans - m.spans
}

// timeCall runs one pipeline stage as a span and returns how long it
// took.
func (r *runner) timeCall(name string, f func() error) (time.Duration, error) {
	sp := r.tr.begin(name, 0, -1)
	t := time.Now()
	err := f()
	d := time.Since(t)
	r.tr.end(sp)
	return d, err
}

// ingestInline is the ingest phase without timers: one writer commits
// the prepared batches and the driver itself calls Groom every
// GroomEvery commits and PostGroom+SyncIndex every PostEvery grooms.
// A commit's freshness is its ack to the return of the Groom that
// covers it.
func (r *runner) ingestInline(ctx context.Context) (phaseTimes, error) {
	e, w := r.e, r.e.w
	var p phaseTimes
	runtime.GC()
	before := e.store.counts()
	var acks []time.Time
	grooms := 0
	groom := func() error {
		live := e.tbl.LiveCount()
		d, err := r.timeCall("wildfire.groom", e.tbl.Groom)
		if err != nil {
			return err
		}
		done := time.Now()
		for _, a := range acks {
			r.fresh.add(done.Sub(a), 0)
		}
		acks = acks[:0]
		p.groom += d
		p.grooms = append(p.grooms, float64(d))
		p.groomedRows += int64(live)
		grooms++
		return nil
	}
	post := func() error {
		d, err := r.timeCall("wildfire.postgroom", e.tbl.PostGroom)
		if err != nil {
			return err
		}
		p.post += d
		p.posts = append(p.posts, float64(d))
		d, err = r.timeCall("wildfire.syncindex", e.tbl.SyncIndex)
		p.sync += d
		p.syncs = append(p.syncs, float64(d))
		return err
	}
	t0 := time.Now()
	for i, batch := range e.batches {
		sent, acked, ok := r.doCommit(ctx, e.tgt, batch)
		if !ok {
			return p, fmt.Errorf("commit %d failed", i)
		}
		p.commit += acked.Sub(sent)
		p.rows += int64(len(batch))
		acks = append(acks, acked)
		if (i+1)%w.GroomEvery == 0 {
			if err := groom(); err != nil {
				return p, err
			}
			if grooms%w.PostEvery == 0 {
				if err := post(); err != nil {
					return p, err
				}
			}
		}
	}
	if len(acks) > 0 {
		if err := groom(); err != nil {
			return p, err
		}
	}
	if w.EvolveAtEnd {
		if err := post(); err != nil {
			return p, err
		}
	}
	p.wall = time.Since(t0)
	p.store = e.store.counts().sub(before)
	e.batches = nil // the read phase should not carry the generator's garbage
	return p, nil
}

// explainLive runs one aggregate that unions the live zone, with a
// query trace attached, and returns how many live rows it merged.
func (r *runner) explainLive(ctx context.Context) float64 {
	q := r.e.tbl.Query().Where(umzi.Ge("ts", umzi.I64(r.aggCutoffs[0]))).
		GroupBy("region").Aggs(countSum...).IncludeLive()
	tr := q.Explain()
	r.attempted.Add(1)
	if _, err := q.All(ctx); err != nil {
		r.fail("live-union probe: %v", err)
	}
	return float64(tr.Snapshot().LiveUnion)
}

// beginRound resets what the warm-up round collected (round 0) and
// forces a collection, so every measured round starts from the same
// heap state.
func (r *runner) beginRound(round int) {
	r.round = round
	if round == 1 {
		r.get, r.ranges, r.agg, r.scan = samples{}, samples{}, samples{}, samples{}
		r.streamRates, r.streamRound = nil, nil
		r.byKind = map[string]*kindStats{}
	}
	runtime.GC()
}

// readQuiesced is the read phase of the inline workloads: nothing
// writes, so every result is checked exactly. One warm-up round fills
// the caches and finishes lazy set-up; the measured rounds follow.
func (r *runner) readQuiesced(ctx context.Context) readTotals {
	e, w := r.e, r.e.w
	r.groomedKeys = e.o.keys.Load()
	r.prepareExpectations()
	var tot readTotals
	var m readMark
	for round := 0; round <= w.Rounds; round++ {
		r.beginRound(round)
		if round == 1 {
			m = r.mark()
		}
		t0 := time.Now()
		ops := 0
		for c := 0; c < w.RoundCycles; c++ {
			ops += r.cycle(ctx, e.tgt, c%w.StreamEvery == 0)
		}
		if d := time.Since(t0); round > 0 {
			tot.ops += ops
			tot.wall += d
			tot.roundRates = append(tot.roundRates, float64(ops)/d.Seconds())
		}
	}
	r.since(m, &tot)
	return tot
}

// runMixed is htap_mixed's measured window: ingest and reads at once.
// The writer is open loop — batch i is due at i/rate and its latency
// counts from then. The analyst is closed loop, cycling its fixed mix.
// The prober sleeps, wakes every millisecond, and when the groomed
// snapshot has moved reads the marker row the writer updates in every
// commit: each commit the marker names as visible yields one freshness
// sample, ack to first sighting.
func (r *runner) runMixed(ctx context.Context) (phaseTimes, readTotals, error) {
	e, w := r.e, r.e.w
	r.prepareExpectations()
	var p phaseTimes
	var tot readTotals
	rounds := w.Rounds + 1 // + warm-up
	roundLen := time.Duration(w.WindowSeconds / float64(w.Rounds+1) * float64(time.Second))
	window := roundLen * time.Duration(rounds)
	maxCommits := int(w.CommitsPerSec*window.Seconds()) + 1

	acks := make([]atomic.Int64, maxCommits+2) // unix ns of commit i's ack (i>=1)
	var acked atomic.Int64                     // commits 1..acked have their ack recorded
	runtime.GC()
	before := e.store.counts()
	start := time.Now()
	end := start.Add(window)
	pace := newPacer(start, w.CommitsPerSec)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < maxCommits; i++ {
			batch := append(e.gen.next(w.RowsPerCommit), e.markerRow(i+1))
			if !pace.due(i).Before(end) {
				return
			}
			due := pace.wait(i, time.Now, time.Sleep)
			r.attempted.Add(1)
			sent := time.Now()
			sp := r.tr.begin("wildfire.commit", 0, -1)
			err := commitRows(ctx, e.tgt, batch)
			r.tr.end(sp)
			ack := time.Now()
			if err != nil {
				r.fail("commit %d: %v", i+1, err)
				return
			}
			r.commit.add(ack.Sub(due), 0)
			p.commit += ack.Sub(sent)
			p.rows += int64(len(batch))
			p.wall = ack.Sub(start)
			acks[i+1].Store(ack.UnixNano())
			acked.Store(int64(i + 1))
		}
	}()

	wg.Add(1)
	go func() { // freshness prober
		defer wg.Done()
		var lastTS umzi.TS
		visible, sampled := int64(0), int64(0)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if ts := e.tbl.SnapshotTS(); ts != lastTS {
				lastTS = ts
				r.attempted.Add(1)
				it, err := e.local.get(ctx, e.markerDevice(), 0)
				if err != nil {
					r.fail("marker get: %v", err)
					continue
				}
				if it.Next() {
					visible = it.Values()[colTS].Int()
				}
				if err := it.Err(); err != nil {
					r.fail("marker get: %v", err)
				}
				it.Close()
			}
			now := time.Now().UnixNano()
			for sampled < visible && sampled < acked.Load() {
				sampled++
				r.fresh.add(time.Duration(now-acks[sampled].Load()), 0)
			}
		}
	}()

	// Analyst, on this goroutine.
	var m readMark
	cycles := 0
	for round := 0; round < rounds; round++ {
		r.beginRound(round)
		if round == 1 {
			m = r.mark()
		}
		if r.tr != nil && round > 0 {
			tot.liveUnion = append(tot.liveUnion, r.explainLive(ctx))
		}
		roundEnd := start.Add(roundLen * time.Duration(round+1))
		t0 := time.Now()
		ops := 0
		for time.Now().Before(roundEnd) {
			ops += r.cycle(ctx, e.tgt, cycles%w.StreamEvery == 0)
			cycles++
		}
		if d := time.Since(t0); round > 0 {
			tot.ops += ops
			tot.wall += d
			tot.roundRates = append(tot.roundRates, float64(ops)/d.Seconds())
		}
	}
	r.since(m, &tot)
	// The writer stops at the window's end on its own; the prober stays
	// until the last commit has been groomed and sampled.
	deadline := time.Now().Add(10 * time.Second)
	for e.tbl.LiveCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if e.tbl.LiveCount() > 0 {
		return p, tot, fmt.Errorf("live zone did not drain within 10s of the window's end")
	}
	// Bring the pipeline to a known point before the end-state metrics
	// (store bytes, heap): whatever was groomed is post-groomed and
	// indexed, whenever the post-groom timer last fired.
	if err := e.evolve(); err != nil {
		return p, tot, err
	}
	p.store = e.store.counts().sub(before)
	p.late = pace.late
	return p, tot, nil
}

// crashImage returns the store a restart would find. A MemStore is
// copied — with daemons still running the copy is retried until the
// listing is the same before and after it, which (objects being
// immutable) makes it the store's state at one instant. An FSStore is
// simply opened again on its directory.
func (e *env) crashImage() (umzi.ObjectStore, error) {
	if e.w.FSStore {
		return umzi.NewFSStore(e.dir, umzi.LatencyModel{})
	}
	for attempt := 0; attempt < 100; attempt++ {
		names, err := e.base.List("")
		if err != nil {
			return nil, err
		}
		img := umzi.NewMemStore(umzi.LatencyModel{})
		ok := true
		for _, n := range names {
			data, err := e.base.Get(n)
			if err != nil {
				ok = false // deleted under us: the store moved
				break
			}
			if err := img.Put(n, data); err != nil {
				return nil, err
			}
		}
		after, err := e.base.List("")
		if err != nil {
			return nil, err
		}
		if ok && reflect.DeepEqual(names, after) {
			return img, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("store never stood still long enough to copy")
}

// commitTail leaves an acknowledged, never-groomed tail behind on the
// inline workloads: the restart check then has a commit log to replay,
// and a traced run has live rows to union.
func (r *runner) commitTail(ctx context.Context) error {
	if r.e.w.Daemons {
		return nil // the groomer would take it within one interval
	}
	n := r.commit.count()
	for i := 0; i < 3; i++ {
		if _, _, ok := r.doCommit(ctx, r.e.tgt, r.e.gen.next(r.e.w.RowsPerCommit)); !ok {
			return fmt.Errorf("tail commit failed")
		}
	}
	r.commit.ns, r.commit.round = r.commit.ns[:n], r.commit.round[:n] // not part of the measured phase
	return nil
}

// makeTailDurable does nothing when commits sync their log records: a
// crash may then lose none of the tail. With the log buffered, rows are
// durable from their groom on, so the tail is groomed first.
func (e *env) makeTailDurable() error {
	if e.w.WALOff {
		return e.tbl.Groom()
	}
	return nil
}

// verifyRestart drops the DB without Close, reopens the store's crash
// image reopenRepeats times and requires every acknowledged row — the
// un-groomed tail included — to be there.
func (r *runner) verifyRestart(ctx context.Context) (reopenMS, replayRows float64, err error) {
	e := r.e
	if e.w.Daemons {
		// Probe commits of a traced run may still be live; the crash
		// image is taken once the groomer has caught up, so the check
		// below can be exact.
		deadline := time.Now().Add(10 * time.Second)
		for e.tbl.LiveCount() > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := e.makeTailDurable(); err != nil {
		return 0, 0, err
	}
	img, err := e.crashImage()
	if err != nil {
		return 0, 0, err
	}
	var times []float64
	var db *umzi.DB
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	for i := 0; i < reopenRepeats; i++ {
		sp := r.tr.begin("wildfire.reopen", 0, -1)
		t := time.Now()
		// The previous incarnation is abandoned, not closed: each reopen
		// recovers from a crash.
		db, err = umzi.OpenDB(umzi.DBConfig{Store: img, Cache: umzi.NewSSDCache(0, umzi.LatencyModel{})})
		times = append(times, float64(time.Since(t)))
		r.tr.end(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("reopen %d: %w", i, err)
		}
	}
	tbl, err := db.Table(tableName)
	if err != nil {
		return 0, 0, err
	}
	replayRows = float64(tbl.LiveCount())
	if err := tbl.Groom(); err != nil {
		return 0, 0, err
	}
	// Exact from here on: nothing writes to the image.
	r.concurrent, r.groomedKeys = false, e.o.keys.Load()
	r.verifyAll(ctx, localTarget(db, tbl))
	return median(times) / 1e6, replayRows, nil
}

// verifyAll streams the whole table and checks every row, then checks
// COUNT/SUM against the oracle.
func (r *runner) verifyAll(ctx context.Context, t target) {
	r.streamCheck(ctx, t)
	count, sum := r.e.o.expectAgg(0).totals()
	count += int64(r.e.markers())
	r.query(t, "verify_count",
		func() (rowsIter, error) { return t.count(ctx, -1, 0) },
		func(vals []umzi.Value) bool {
			return len(vals) == 2 && vals[0].Int() == count && vals[1].Float() == sum
		})
}
