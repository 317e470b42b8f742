package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"umzi"
)

// runner issues the operations of one run, checks every result against
// the oracle and keeps the latency samples. Every operation counts into
// attempted; one that errors or returns a wrong row counts into failed.
type runner struct {
	e   *env
	tr  *tracer
	rng *rand.Rand
	// concurrent relaxes the checks to what holds while the writer
	// runs: a read at the groomed snapshot may see any version between
	// the one setup groomed and the newest issued.
	concurrent bool
	// groomedKeys is how many keys the groomed snapshot holds in a
	// quiesced phase; the un-groomed tail lies beyond it.
	groomedKeys int64
	round       int

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failMsgs          []string

	commit, fresh, get, ranges, agg, scan samples
	streamRates                           []float64 // rows/s per pass
	streamRound                           []int
	opSeq                                 atomic.Uint64

	// byKind is each operation class's count, total time and store
	// traffic over the measured rounds.
	byKind map[string]*kindStats
	// breakdown is a traced run's estimate of where an aggregate, a
	// scan and a stream pass spend their time: ns per operation by
	// layer, "wildfire" being what no unit cost accounts for.
	breakdown map[string]map[string]float64

	aggCutoffs []int64
	aggWant    map[int64]*aggExpect
	scanWant   *aggExpect
}

// kindStats is one operation class's share of a phase.
type kindStats struct {
	ops   int
	rows  int
	ns    int64
	store storeCounts
}

func (r *runner) kind(name string) *kindStats {
	k := r.byKind[name]
	if k == nil {
		k = &kindStats{}
		r.byKind[name] = k
	}
	return k
}

func newRunner(e *env, seed int64, tr *tracer) *runner {
	return &runner{e: e, tr: tr, rng: rand.New(rand.NewSource(int64(seedOf(seed, "reads")))),
		concurrent: e.w.Daemons, aggWant: map[int64]*aggExpect{}, byKind: map[string]*kindStats{}}
}

func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failMsgs) < 8 {
		r.failMsgs = append(r.failMsgs, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

func (r *runner) nextOp() uint64 {
	op := r.opSeq.Add(1)
	r.tr.setOp(op)
	return op
}

// query runs one read — open, first row, drain, close — timed as a
// whole; with a tracer each step is a span under the operation's own.
// each sees every row and reports whether it is right.
func (r *runner) query(t target, kind string, open func() (rowsIter, error), each func(vals []umzi.Value) bool) (rows int, dur time.Duration, ok bool) {
	r.attempted.Add(1)
	op := r.nextOp()
	parent := r.tr.begin("driver."+kind, op, -1)
	defer r.tr.end(parent)
	before := r.e.store.counts()
	defer func() {
		k := r.kind(kind)
		k.ops++
		k.rows += rows
		k.ns += int64(dur)
		k.store = k.store.add(r.e.store.counts().sub(before))
	}()
	t0 := time.Now()
	sp := r.tr.begin(t.layer()+".query_open", op, parent)
	it, err := open()
	r.tr.end(sp)
	if err != nil {
		r.fail("%s: %v", kind, err)
		return 0, 0, false
	}
	sp = r.tr.begin(t.layer()+".first_row", op, parent)
	has := it.Next()
	r.tr.end(sp)
	sp = r.tr.begin(t.layer()+".drain", op, parent)
	good := true
	for has {
		rows++
		if !each(it.Values()) {
			good = false
		}
		has = it.Next()
	}
	r.tr.endN(sp, int64(rows))
	err = it.Err()
	sp = r.tr.begin(t.layer()+".rows_close", op, parent)
	cerr := it.Close()
	r.tr.end(sp)
	dur = time.Since(t0)
	switch {
	case err != nil:
		r.fail("%s: %v", kind, err)
	case cerr != nil:
		r.fail("%s: close: %v", kind, cerr)
	case !good:
		r.fail("%s: wrong row", kind)
	default:
		return rows, dur, true
	}
	return rows, dur, false
}

// readableKeys is how many keys a read may ask for: in a quiesced phase
// every key, beside a writer only the ones setup groomed.
func (r *runner) readableKeys() int64 {
	if r.concurrent {
		return int64(len(r.e.floor))
	}
	return r.groomedKeys
}

// validValue checks an index-only value (no payload to name the
// version) against the versions a read may legally see.
func (r *runner) validValue(key int64, val float64) bool {
	o := r.e.o
	cur := o.version[key].Load()
	if !r.concurrent {
		return val == o.valueOf(key, cur)
	}
	lo := uint32(1)
	if key < int64(len(r.e.floor)) {
		lo = r.e.floor[key]
	}
	for v := cur; v >= lo; v-- {
		if val == o.valueOf(key, v) {
			return true
		}
	}
	return false
}

func (r *runner) doGet(ctx context.Context, t target) {
	o := r.e.o
	key := r.rng.Int63n(r.readableKeys())
	rows, dur, ok := r.query(t, "get",
		func() (rowsIter, error) { return t.get(ctx, o.deviceOf(key), o.msgOf(key)) },
		func(vals []umzi.Value) bool {
			if len(vals) != 7 || o.keyOf(vals[colDevice].Int(), vals[colMsg].Int()) != key {
				return false
			}
			if r.concurrent {
				v, _ := payloadVersion(vals[colPayload].Bytes())
				return v >= r.e.floor[key] && o.checkRow(vals, 0)
			}
			return o.checkRow(vals, o.version[key].Load())
		})
	if ok && rows != 1 {
		r.fail("get key %d: %d rows", key, rows)
		ok = false
	}
	if ok {
		r.get.add(dur, r.round)
	}
}

func (r *runner) doRange(ctx context.Context, t target) {
	o := r.e.o
	keys := r.readableKeys()
	device := r.rng.Int63n(min(o.devices, keys))
	msgs := (keys - device + o.devices - 1) / o.devices // msgs this device has
	n := min(int64(rangeLen), msgs)
	lo := r.rng.Int63n(msgs - n + 1)
	next := lo
	rows, dur, ok := r.query(t, "range",
		func() (rowsIter, error) { return t.rangeScan(ctx, device, lo, lo+n-1) },
		func(vals []umzi.Value) bool {
			if len(vals) != 2 || vals[0].Int() != next {
				return false
			}
			next++
			return r.validValue(o.keyOf(device, vals[0].Int()), vals[1].Float())
		})
	if ok && int64(rows) != n {
		r.fail("range device %d [%d,%d]: %d rows", device, lo, lo+n-1, rows)
		ok = false
	}
	if ok {
		r.ranges.add(dur, r.round)
	}
}

// regionIndex maps a region name back to its ordinal, -1 when unknown.
func regionIndex(name []byte) int {
	if len(name) != regionLen || string(name[:7]) != "region-" {
		return -1
	}
	i := int(name[7]-'0')*10 + int(name[8]-'0')
	if i < 0 || i >= numRegions {
		return -1
	}
	return i
}

// prepareExpectations computes the oracle's answers to the analytical
// queries of a quiesced read phase, once.
func (r *runner) prepareExpectations() {
	o := r.e.o
	writes := o.writes.Load()
	// Four cutoffs around "the newest 10%", so consecutive aggregates
	// are not byte-identical statements.
	r.aggCutoffs = nil
	for _, pct := range []int64{88, 89, 90, 91} {
		c := writes * pct / 100
		r.aggCutoffs = append(r.aggCutoffs, c)
		if !r.concurrent {
			r.aggWant[c] = o.expectAgg(c)
		}
	}
	if !r.concurrent {
		r.scanWant = o.expectAgg(0)
	}
}

func (r *runner) doAgg(ctx context.Context, t target) {
	cutoff := r.aggCutoffs[r.rng.Intn(len(r.aggCutoffs))]
	var at umzi.TS
	if r.concurrent {
		at = r.e.tbl.SnapshotTS() // pinned, so the cross-check below reads the same snapshot
	}
	var got aggExpect
	_, dur, ok := r.query(t, "agg",
		func() (rowsIter, error) { return t.agg(ctx, cutoff, at) },
		func(vals []umzi.Value) bool {
			if len(vals) != 3 {
				return false
			}
			i := regionIndex(vals[0].Bytes())
			if i < 0 || got.count[i] != 0 {
				return false
			}
			got.count[i], got.sum[i] = vals[1].Int(), vals[2].Float()
			return true
		})
	if !ok {
		return
	}
	r.agg.add(dur, r.round)
	if !r.concurrent {
		if got != *r.aggWant[cutoff] {
			r.fail("agg cutoff %d: groups differ from the oracle", cutoff)
		}
		return
	}
	// Beside a writer the oracle cannot name the snapshot's contents;
	// the groups must still add up to the ungrouped COUNT/SUM at the
	// same snapshot. Checked on every fourth aggregate, untimed.
	if r.agg.count()%4 != 0 {
		return
	}
	wantCount, wantSum := got.totals()
	r.query(t, "agg_check",
		func() (rowsIter, error) { return t.count(ctx, cutoff, at) },
		func(vals []umzi.Value) bool {
			return len(vals) == 2 && vals[0].Int() == wantCount && vals[1].Float() == wantSum
		})
}

func (r *runner) doScan(ctx context.Context, t target) {
	o := r.e.o
	floorKeys := int64(len(r.e.floor))
	_, dur, ok := r.query(t, "scan",
		func() (rowsIter, error) { return t.count(ctx, -1, 0) },
		func(vals []umzi.Value) bool {
			if len(vals) != 2 {
				return false
			}
			if r.concurrent { // +1: the freshness marker row
				n := vals[0].Int()
				return n >= floorKeys+1 && n <= o.keys.Load()+1
			}
			count, sum := r.scanWant.totals()
			return vals[0].Int() == count && vals[1].Float() == sum
		})
	if ok {
		r.scan.add(dur, r.round)
	}
}

// streamCheck drains the 3-column projection of the table and checks
// every row; it returns the rows per second through Next+Values.
func (r *runner) streamCheck(ctx context.Context, t target) (rate float64, ok bool) {
	o := r.e.o
	var keySum int64
	markers := 0
	rows, dur, ok := r.query(t, "stream",
		func() (rowsIter, error) { return t.stream(ctx, 0) },
		func(vals []umzi.Value) bool {
			if len(vals) != 3 {
				return false
			}
			device, msg := vals[0].Int(), vals[1].Int()
			if device == r.e.markerDevice() {
				markers++
				return msg == 0
			}
			key := o.keyOf(device, msg)
			if device < 0 || device >= o.devices || key < 0 || key >= o.keys.Load() {
				return false
			}
			keySum += key
			return r.validValue(key, vals[2].Float())
		})
	if !ok {
		return 0, false
	}
	n := int64(rows - markers)
	if r.concurrent {
		ok = markers == r.e.markers() && n >= int64(len(r.e.floor)) && n <= o.keys.Load()
	} else {
		// Right count and right key sum over valid keys: every live
		// key exactly once.
		keys := o.keys.Load()
		ok = markers == r.e.markers() && n == keys && keySum == keys*(keys-1)/2
	}
	if !ok {
		r.fail("stream: %d rows, %d markers for %d live keys", rows, markers, o.keys.Load())
		return 0, false
	}
	return float64(rows) / dur.Seconds(), true
}

func (r *runner) doStream(ctx context.Context, t target) {
	if rate, ok := r.streamCheck(ctx, t); ok {
		r.streamRates = append(r.streamRates, rate)
		r.streamRound = append(r.streamRound, r.round)
	}
}

// cycle is the analyst's unit of work: a fixed mix, so operations per
// second compare across runs.
func (r *runner) cycle(ctx context.Context, t target, withStream bool) (ops int) {
	w := r.e.w
	if withStream {
		r.doStream(ctx, t)
		ops++
	}
	for i := 0; i < w.CycleScans; i++ {
		r.doScan(ctx, t)
	}
	for i := 0; i < w.CycleAggs; i++ {
		r.doAgg(ctx, t)
	}
	for i := 0; i < w.CycleGets; i++ {
		r.doGet(ctx, t)
	}
	for i := 0; i < w.CycleRanges; i++ {
		r.doRange(ctx, t)
	}
	return ops + w.CycleScans + w.CycleAggs + w.CycleGets + w.CycleRanges
}

// doCommit stages and commits one batch, closed loop: its latency counts
// from the call. It returns when the commit was sent and acknowledged.
func (r *runner) doCommit(ctx context.Context, t target, rows []umzi.Row) (sent, acked time.Time, ok bool) {
	r.attempted.Add(1)
	sent = time.Now()
	sp := r.tr.begin("wildfire.commit", r.nextOp(), -1)
	err := commitRows(ctx, t, rows)
	r.tr.end(sp)
	acked = time.Now()
	if err != nil {
		r.fail("commit: %v", err)
		return sent, acked, false
	}
	r.commit.add(acked.Sub(sent), 0)
	return sent, acked, true
}
