package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/columnar"
	"umzi/internal/core"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/server"
	"umzi/internal/types"
	"umzi/internal/wal"
	"umzi/internal/wildfire"
	"umzi/internal/wire"
)

// The traced run prices each layer. Layers the driver can stand next to
// — storage, the pipeline stages, the query surfaces — are timed around
// the calls the workload itself makes. Layers the public API hides are
// priced by replaying their exported functions over this run's own rows
// and stored objects: same data, same shapes, no synthetic input.

const (
	replayRows = 8192 // rows rebuilt from the oracle for the replays
	replayReps = 5    // each unit cost is the median of this many timings
)

// unitCost times f, which processes n items, replayReps times and
// returns the median nanoseconds per item.
func unitCost(n int, f func()) float64 {
	var per []float64
	for i := 0; i < replayReps; i++ {
		t := time.Now()
		f()
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// sampleRows rebuilds up to replayRows of the table's live rows from
// the oracle, evenly spaced over the key space.
func sampleRows(o *oracle) []umzi.Row {
	keys := o.keys.Load()
	n := min(int64(replayRows), keys)
	rows := make([]umzi.Row, 0, n)
	for i := int64(0); i < n; i++ {
		k := i * keys / n
		rows = append(rows, o.row(k, o.version[k].Load(), o.lastTS[k].Load()))
	}
	return rows
}

// storedObjects returns the contents of up to limit objects whose names contain part,
// largest first.
func storedObjects(s umzi.ObjectStore, part string, limit int) (data [][]byte, err error) {
	all, err := s.List("")
	if err != nil {
		return nil, err
	}
	type obj struct {
		name string
		size int64
	}
	var objs []obj
	for _, n := range all {
		if strings.Contains(n, part) {
			sz, err := s.Size(n)
			if err != nil {
				continue // retired under us by a daemon
			}
			objs = append(objs, obj{n, sz})
		}
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].size != objs[j].size {
			return objs[i].size > objs[j].size
		}
		return objs[i].name < objs[j].name
	})
	for _, o := range objs {
		if len(data) == limit {
			break
		}
		d, err := s.Get(o.name)
		if err != nil {
			continue
		}
		data = append(data, d)
	}
	return data, nil
}

func replayKeyenc(m metricSet, rows []umzi.Row) {
	buf := make([]byte, 0, 64)
	m.set("keyenc.encode_ns_per_key", unitCost(len(rows), func() {
		for _, r := range rows {
			buf = keyenc.AppendComposite(buf[:0], r[colDevice], r[colMsg])
		}
	}), "ns")
}

func replayWAL(m metricSet, rows []umzi.Row, perCommit int) error {
	store := umzi.NewMemStore(umzi.LatencyModel{})
	log, err := wal.Open(store, "replay/wal", wal.Options{Policy: wal.SyncPerCommit})
	if err != nil {
		return err
	}
	defer log.Close()
	var lat []float64
	seq := uint64(1)
	total := 0
	for off := 0; off+perCommit <= len(rows); off += perCommit {
		rec := wal.Record{Table: tableName, Base: seq, CommitTS: time.Now().UnixNano()}
		for _, r := range rows[off : off+perCommit] {
			rec.Rows = append(rec.Rows, keyenc.AppendComposite(nil, r...))
		}
		t := time.Now()
		if err := log.Commit(rec); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t)))
		seq += uint64(perCommit)
		total += perCommit
	}
	_, walBytes := log.Stats()
	m.set("wal.commit_us", median(lat)/1e3, "us")
	m.set("wal.bytes_per_row", float64(walBytes)/float64(total), "B")
	var replayed int
	perRow := unitCost(total, func() {
		replayed = 0
		if err := log.Replay(0, func(r wal.Record) error { replayed += len(r.Rows); return nil }); err != nil {
			replayed = -1
		}
	})
	if replayed != total {
		return fmt.Errorf("wal replay returned %d of %d rows", replayed, total)
	}
	m.set("wal.replay_rows_per_s", 1e9/perRow, "1/s")
	return nil
}

// replayColumnar prices block build, marshal and unmarshal on the
// table's own stored data blocks, and the encoded-column comparison the
// vectorized filter runs on.
func replayColumnar(m metricSet, s umzi.ObjectStore) (sample *columnar.Block, err error) {
	objs, err := storedObjects(s, "/block-", 4)
	if err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("no stored data block to replay")
	}
	var blocks []*columnar.Block
	rows, stored, plain := 0, 0, 0
	for _, d := range objs {
		blk, err := columnar.Unmarshal(d)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, blk)
		rows += blk.NumRows()
		stored += len(d)
		plain += blk.PlainSize()
	}
	m.set("columnar.unmarshal_ns_per_row", unitCost(rows, func() {
		for _, d := range objs {
			columnar.Unmarshal(d)
		}
	}), "ns")
	m.set("columnar.marshal_ns_per_row", unitCost(rows, func() {
		for _, b := range blocks {
			b.Marshal()
		}
	}), "ns")
	// Rebuild: materialize the rows once, outside the timed part.
	var mats [][][]keyenc.Value
	for _, b := range blocks {
		mat := make([][]keyenc.Value, b.NumRows())
		for r := range mat {
			mat[r] = b.Row(r, nil)
		}
		mats = append(mats, mat)
	}
	m.set("columnar.build_ns_per_row", unitCost(rows, func() {
		for i, b := range blocks {
			bld := columnar.NewBuilder(b.Schema())
			for _, row := range mats[i] {
				bld.Append(row)
			}
			bld.Build()
		}
	}), "ns")
	m.set("columnar.bytes_per_row", float64(stored)/float64(rows), "B")
	m.set("columnar.plain_bytes_per_row", float64(plain)/float64(rows), "B")
	big := blocks[0]
	out := make([]uint64, (big.NumRows()+63)/64)
	pivot, _ := big.ColumnMax(colTS)
	m.set("columnar.cmpselect_ns_per_row", unitCost(big.NumRows(), func() {
		big.CmpSelect(colTS, pivot, false, true, true, out)
	}), "ns")
	return big, nil
}

// replayRun prices run build and seek on the table's own stored index
// runs.
func replayRun(m metricSet, s umzi.ObjectStore, rng *rand.Rand) error {
	objs, err := storedObjects(s, "/idx/z", 2)
	if err != nil {
		return err
	}
	if len(objs) == 0 {
		return fmt.Errorf("no stored index run to replay")
	}
	data := objs[0]
	rd, err := run.OpenObject(data)
	if err != nil {
		return err
	}
	h := rd.Header()
	var entries []run.Entry
	for it := rd.Begin(); it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return fmt.Errorf("stored run is empty")
	}
	var buildErr error
	m.set("run.build_ns_per_entry", unitCost(len(entries), func() {
		b, err := run.NewBuilder(h.Def, h.Meta, int(h.BlockSize))
		if err != nil {
			buildErr = err
			return
		}
		for _, e := range entries {
			b.Add(e)
		}
		if _, _, err := b.Finish(); err != nil {
			buildErr = err
		}
	}), "ns")
	if buildErr != nil {
		return buildErr
	}
	const seeks = 2000
	var lat []float64
	for i := 0; i < seeks; i++ {
		e := entries[rng.Intn(len(entries))]
		k := run.SearchKey{Hash: e.Hash, Key: e.Key}
		t := time.Now()
		it, err := rd.SeekGE(k)
		if err != nil {
			return err
		}
		_, err = it.Entry()
		it.Close()
		lat = append(lat, float64(time.Since(t)))
		if err != nil {
			return err
		}
	}
	m.set("run.seek_us", median(lat)/1e3, "us")
	m.set("run.bytes_per_entry", float64(len(data))/float64(len(entries)), "B")
	return nil
}

// replayCore drives a private core.Index over the run's rows: level-0
// builds, lookups, a range scan, one evolve and the merges they leave
// pending.
func replayCore(m metricSet, rows []umzi.Row, rng *rand.Rand) error {
	ix, err := core.New(core.Config{
		Name:  "replay/idx",
		Store: umzi.NewMemStore(umzi.LatencyModel{}),
		Cache: umzi.NewSSDCache(0, umzi.LatencyModel{}),
		Def: core.IndexDef{
			Equality: []core.Column{{Name: "device", Kind: keyenc.KindInt64}},
			Sort:     []core.Column{{Name: "msg", Kind: keyenc.KindInt64}},
			Included: []core.Column{{Name: "value", Kind: keyenc.KindFloat64}},
		},
	})
	if err != nil {
		return err
	}
	defer ix.Close()
	entries := make([]run.Entry, len(rows))
	for i, r := range rows {
		e, err := ix.MakeEntry([]keyenc.Value{r[colDevice]}, []keyenc.Value{r[colMsg]}, []keyenc.Value{r[colValue]},
			types.MakeTS(uint64(i/1024+1), uint32(i%1024)), types.RID{Zone: types.ZoneGroomed, Block: uint64(i/1024 + 1), Offset: uint32(i % 1024)})
		if err != nil {
			return err
		}
		entries[i] = e
	}
	const chunk = 1024
	var builds []float64
	nRuns := uint64(0)
	for off := 0; off+chunk <= len(entries); off += chunk {
		nRuns++
		part := append([]run.Entry(nil), entries[off:off+chunk]...)
		t := time.Now()
		if err := ix.BuildRun(part, types.BlockRange{Min: nRuns, Max: nRuns}); err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t))/chunk)
	}
	if nRuns == 0 {
		return fmt.Errorf("too few rows (%d) to replay the index", len(rows))
	}
	indexed := int(nRuns) * chunk
	m.set("core.build_run_ns_per_entry", median(builds), "ns")

	var lat []float64
	for i := 0; i < 2000; i++ {
		r := rows[rng.Intn(indexed)]
		t := time.Now()
		_, found, err := ix.PointLookup([]keyenc.Value{r[colDevice]}, []keyenc.Value{r[colMsg]}, types.MaxTS)
		lat = append(lat, float64(time.Since(t)))
		if err != nil || !found {
			return fmt.Errorf("replay point lookup: found=%v err=%v", found, err)
		}
	}
	m.set("core.point_lookup_us", median(lat)/1e3, "us")

	batch := make([]core.LookupKey, 1000)
	for i := range batch {
		r := rows[rng.Intn(indexed)]
		batch[i] = core.LookupKey{Equality: []keyenc.Value{r[colDevice]}, Sort: []keyenc.Value{r[colMsg]}}
	}
	m.set("core.lookup_batch_ns_per_key", unitCost(len(batch), func() { ix.LookupBatch(batch, types.MaxTS) }), "ns")

	scanned := 0
	perScan := unitCost(1, func() {
		scanned = 0
		for d := 0; d < 50; d++ {
			r := rows[rng.Intn(indexed)]
			out, _ := ix.RangeScan(core.ScanOptions{Equality: []keyenc.Value{r[colDevice]}, TS: types.MaxTS, Limit: rangeLen})
			scanned += len(out)
		}
	})
	m.set("core.range_scan_ns_per_entry", perScan/float64(max(scanned, 1)), "ns")

	// Evolve the older half into the post-groomed zone.
	half := nRuns / 2
	if half == 0 {
		half = 1
	}
	moved := append([]run.Entry(nil), entries[:int(half)*chunk]...)
	for i := range moved {
		moved[i].RID.Zone = types.ZonePostGroomed
	}
	t := time.Now()
	if err := ix.Evolve(1, moved, types.BlockRange{Min: 1, Max: half}); err != nil {
		return err
	}
	m.set("core.evolve_ns_per_entry", float64(time.Since(t))/float64(len(moved)), "ns")
	t = time.Now()
	if err := ix.Quiesce(); err != nil {
		return err
	}
	m.set("core.maintain_ms", float64(time.Since(t))/1e6, "ms")
	return nil
}

func aggPlan(cutoff int64) exec.Plan {
	return exec.Plan{Filter: exec.Ge("ts", keyenc.I64(cutoff)), GroupBy: []string{"region"},
		Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "value"}}}
}

func replayExec(m metricSet, rows []umzi.Row, blk *columnar.Block, cutoff int64) error {
	cols := eventsTable().Columns
	var bound *exec.BoundPlan
	var err error
	m.set("exec.bind_us", unitCost(1, func() { bound, err = aggPlan(cutoff).Bind(cols) })/1e3, "us")
	if err != nil {
		return err
	}
	var part *exec.Partial
	m.set("exec.partial_add_ns_per_row", unitCost(len(rows), func() {
		part = bound.NewPartial()
		for _, r := range rows {
			r := r
			part.Add(func(c int) keyenc.Value { return r[c] })
		}
	}), "ns")
	m.set("exec.can_match_block_ns", unitCost(1000, func() {
		for i := 0; i < 1000; i++ {
			bound.CanMatchBlock(blk)
		}
	}), "ns")
	t := time.Now()
	it := bound.FinalizeIter(part)
	groups := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		groups++
	}
	m.set("exec.finalize_us", float64(time.Since(t))/1e3, "us")
	if groups != numRegions {
		return fmt.Errorf("exec replay: %d groups", groups)
	}
	return nil
}

func replaySpec(m metricSet, cutoff int64) error {
	spec := wildfire.QuerySpec{Filter: exec.Ge("ts", keyenc.I64(cutoff)), GroupBy: []string{"region"},
		Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "value"}}}
	var raw []byte
	var err error
	m.set("wildfire.spec_marshal_ns", unitCost(1000, func() {
		for i := 0; i < 1000; i++ {
			raw, err = wildfire.MarshalQuerySpec(spec)
		}
	}), "ns")
	if err != nil {
		return err
	}
	m.set("wildfire.spec_unmarshal_ns", unitCost(1000, func() {
		for i := 0; i < 1000; i++ {
			_, err = wildfire.UnmarshalQuerySpec(raw)
		}
	}), "ns")
	return err
}

// replayWire prices row encode and decode for the stream projection and
// one frame's trip through a loopback TCP connection.
func replayWire(m metricSet, rows []umzi.Row) error {
	proj := make([][]keyenc.Value, len(rows))
	for i, r := range rows {
		proj[i] = []keyenc.Value{r[colDevice], r[colMsg], r[colValue]}
	}
	var buf []byte
	var err error
	m.set("wire.append_row_ns", unitCost(len(proj), func() {
		buf = buf[:0]
		for _, r := range proj {
			if buf, err = wire.AppendRow(buf, r); err != nil {
				return
			}
		}
	}), "ns")
	if err != nil {
		return err
	}
	m.set("wire.bytes_per_row", float64(len(buf))/float64(len(proj)), "B")
	m.set("wire.decode_row_ns", unitCost(len(proj), func() {
		d := wire.NewDec(buf)
		for range proj {
			d.Row()
		}
		err = d.Err()
	}), "ns")
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer out.Close()
	in, ok := <-accepted
	if !ok {
		return fmt.Errorf("loopback accept failed")
	}
	defer in.Close()
	payload := buf[:min(len(buf), 16<<10)]
	var lat []float64
	for i := 0; i < 500; i++ {
		t := time.Now()
		if err := wire.WriteFrame(out, wire.FrameRowBatch, payload); err != nil {
			return err
		}
		_, got, err := wire.ReadFrame(in)
		lat = append(lat, float64(time.Since(t)))
		if err != nil || !bytes.Equal(got, payload) {
			return fmt.Errorf("loopback frame: %v", err)
		}
	}
	m.set("wire.frame_write_read_us", median(lat)/1e3, "us")
	return nil
}

// surfaceCosts prices one query surface (umzi.* in process, client.*
// over the wire): open, first row and close on point gets — the
// cheapest fixed path — and the per-row drain cost on a stream.
func (r *runner) surfaceCosts(ctx context.Context, m metricSet, t target) {
	o := r.e.o
	var open, first, closing []float64
	for i := 0; i < 300; i++ {
		key := r.rng.Int63n(r.readableKeys())
		r.attempted.Add(1)
		t0 := time.Now()
		it, err := t.get(ctx, o.deviceOf(key), o.msgOf(key))
		t1 := time.Now()
		if err != nil {
			r.fail("surface get: %v", err)
			continue
		}
		found := it.Next()
		t2 := time.Now()
		it.Next()
		t3 := time.Now()
		it.Close()
		t4 := time.Now()
		if !found || it.Err() != nil {
			r.fail("surface get key %d: found=%v err=%v", key, found, it.Err())
			continue
		}
		open = append(open, float64(t1.Sub(t0)))
		first = append(first, float64(t2.Sub(t1)))
		closing = append(closing, float64(t4.Sub(t3)))
	}
	p := t.layer()
	m.set(p+".query_open_us", median(open)/1e3, "us")
	m.set(p+".first_row_us", median(first)/1e3, "us")
	if p == "umzi" {
		m.set("umzi.rows_close_us", median(closing)/1e3, "us")
	}

	r.attempted.Add(1)
	it, err := t.stream(ctx, 0)
	if err != nil {
		r.fail("surface stream: %v", err)
		return
	}
	rows := 0
	has := it.Next()
	t0 := time.Now()
	for has {
		rows++
		_ = it.Values()
		has = it.Next()
	}
	d := time.Since(t0)
	if err := it.Err(); err != nil {
		r.fail("surface stream: %v", err)
	}
	it.Close()
	m.set(p+".drain_ns_per_row", float64(d)/float64(max(rows, 1)), "ns")
}

// serverCosts prices the server and client layers. On serve_remote the
// run's own server is used; elsewhere a server is started over the
// run's DB just for this.
func (r *runner) serverCosts(ctx context.Context, m metricSet) error {
	e := r.e
	cdb := e.cdb
	if cdb == nil {
		srv, err := server.New(server.Config{DB: e.db})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Shutdown(sctx)
			cancel()
		}()
		if cdb, err = client.Open(client.Config{Addr: ln.Addr().String(), MaxConns: 2}); err != nil {
			return err
		}
		defer cdb.Close()
	}
	var lat []float64
	for i := 0; i < 500; i++ {
		t := time.Now()
		if err := cdb.Ping(ctx); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t)))
	}
	m.set("server.ping_rtt_us", median(lat)/1e3, "us")

	rt := remoteTarget(cdb)
	r.surfaceCosts(ctx, m, rt)

	// One-row commits: the round trip without the engine's per-row work.
	lat = lat[:0]
	for i := 0; i < 100; i++ {
		rows := e.gen.next(1)
		t := time.Now()
		r.attempted.Add(1)
		if err := commitRows(ctx, rt, rows); err != nil {
			r.fail("rtt commit: %v", err)
			continue
		}
		lat = append(lat, float64(time.Since(t)))
	}
	m.set("client.commit_rtt_us", median(lat)/1e3, "us")

	snap := e.db.Metrics()
	hits, misses := snap.Sum("server_stmt_cache_hits", nil), snap.Sum("server_stmt_cache_misses", nil)
	m.set("server.stmt_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.set("server.admission_rejected", float64(snap.Sum("server_admission_rejected", nil)), "count")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// explainCosts runs a few queries with a trace attached (Query.Explain)
// and reports what the engine says it touched.
func (r *runner) explainCosts(ctx context.Context, m metricSet) {
	e, o := r.e, r.e.o
	var read, synSkipped, bloomSkipped, backChecks float64
	const aggs, gets, regions = 8, 200, 16
	for i := 0; i < aggs; i++ {
		q := e.tbl.Query().Where(umzi.Ge("ts", umzi.I64(r.aggCutoffs[i%len(r.aggCutoffs)]))).GroupBy("region").Aggs(countSum...)
		tr := q.Explain()
		r.attempted.Add(1)
		if _, err := q.All(ctx); err != nil {
			r.fail("explain agg: %v", err)
			continue
		}
		s := tr.Snapshot()
		read += float64(s.BlocksRead)
		synSkipped += float64(s.BlocksSkipped - s.BlocksBloomSkipped)
	}
	for i := 0; i < gets; i++ {
		key := r.rng.Int63n(r.readableKeys())
		q := e.tbl.Query().Where(umzi.And(umzi.Eq("device", umzi.I64(o.deviceOf(key))), umzi.Eq("msg", umzi.I64(o.msgOf(key)))))
		tr := q.Explain()
		r.attempted.Add(1)
		if _, err := q.All(ctx); err != nil {
			r.fail("explain get: %v", err)
			continue
		}
		bloomSkipped += float64(tr.Snapshot().BlocksBloomSkipped)
	}
	// The newest rows of each region, through the secondary index: every
	// candidate is back-checked against the primary, and the entries
	// updates left behind are dropped there.
	cutoff := r.aggCutoffs[len(r.aggCutoffs)-1]
	for i := 0; i < regions; i++ {
		q := e.tbl.Query().Where(umzi.And(umzi.Eq("region", umzi.Str(regionNames[i])), umzi.Ge("ts", umzi.I64(cutoff)))).
			OrderBy("ts").Limit(rangeLen)
		tr := q.Explain()
		r.attempted.Add(1)
		rows, err := q.All(ctx)
		if err != nil {
			r.fail("explain region: %v", err)
			continue
		}
		for _, row := range rows {
			if !o.checkRow(row, 0) || string(row[colRegion].Bytes()) != regionNames[i] {
				r.fail("region query returned a wrong row")
				break
			}
		}
		backChecks += float64(tr.Snapshot().BackChecked)
	}
	m.set("wildfire.blocks_read_per_agg", read/aggs, "count")
	m.set("wildfire.blocks_synopsis_skipped_per_agg", synSkipped/aggs, "count")
	m.set("wildfire.blocks_bloom_skipped_per_get", bloomSkipped/gets, "count")
	m.set("wildfire.skip_ratio", ratio(synSkipped, read+synSkipped), "ratio")
	m.set("wildfire.back_checks_per_query", backChecks/regions, "count")
}

// countRuns counts the primary index's live runs per zone from the
// store listing (merged and evolved-away runs are deleted).
func countRuns(s umzi.ObjectStore) (groomed, post float64) {
	names, err := s.List("")
	if err != nil {
		return 0, 0
	}
	for _, n := range names {
		switch {
		case strings.Contains(n, fmt.Sprintf("/idx/z%d/run-", types.ZoneGroomed)):
			groomed++
		case strings.Contains(n, fmt.Sprintf("/idx/z%d/run-", types.ZonePostGroomed)):
			post++
		}
	}
	return groomed, post
}

// layerCosts fills in every per-layer metric of a traced run. p and tot
// are the measured phases' own accounting; the replays and probes run
// here, after the measured phases and before the restart check.
func (r *runner) layerCosts(ctx context.Context, m metricSet, p phaseTimes, tot readTotals, runsGroomed, runsPost float64, ssdUsed int64) error {
	e := r.e
	rows := sampleRows(e.o)
	cutoff := r.aggCutoffs[0]

	// storage: the measured phases' traffic through the decorator.
	st := p.store
	if !e.w.Daemons {
		st = st.add(tot.store) // the window of htap_mixed already holds both phases
	}
	for i, name := range []string{"put_ops", "put_bytes", "get_ops", "get_bytes", "range_get_ops", "list_ops", "delete_ops"} {
		unit := "count"
		if strings.HasSuffix(name, "bytes") {
			unit = "B"
		}
		m.set("storage."+name, float64(st[i]), unit)
	}
	m.set("storage.busy_ms", float64(st[scBusyNS])/1e6, "ms")
	m.set("storage.put_bytes_wal", float64(st[scPutWAL]), "B")
	m.set("storage.put_bytes_block", float64(st[scPutBlock]), "B")
	m.set("storage.put_bytes_run", float64(st[scPutRun]), "B")
	m.set("storage.put_bytes_meta", float64(st[scPutMeta]), "B")
	perOp := func(kind string, fields ...int) float64 {
		k := r.kind(kind)
		var n int64
		for _, f := range fields {
			n += k.store[f]
		}
		return ratio(float64(n), float64(k.ops))
	}
	m.set("storage.gets_per_get", perOp("get", scGetOps, scRangeGetOps), "count")
	m.set("storage.gets_per_agg", perOp("agg", scGetOps, scRangeGetOps), "count")
	m.set("storage.ssd_hits", float64(tot.ssdHits), "count")
	m.set("storage.ssd_misses", float64(tot.ssdMisses), "count")
	m.set("storage.ssd_hit_ratio", ratio(float64(tot.ssdHits), float64(tot.ssdHits+tot.ssdMisses)), "ratio")
	m.set("storage.ssd_used_bytes", float64(ssdUsed), "B")

	// wildfire: the pipeline stages, as shares of the ingest phase.
	snap := e.db.Metrics()
	m.set("wal.appends", float64(snap.Sum("wal_appends", nil)), "count")
	if h := snap.Get("wal_batch_records", nil); h != nil && h.Hist != nil {
		m.set("wal.batch_records_p50", float64(h.Hist.P50), "count")
	} else {
		m.set("wal.batch_records_p50", 0, "count")
	}
	wall := float64(p.wall)
	m.set("wildfire.commit_share", float64(p.commit)/wall, "ratio")
	if e.w.Daemons {
		// The daemons groom on their own timers; only the groomer is
		// instrumented (DB.Metrics), summed over shards.
		var groomNS, groomRows, cycles float64
		var p50s []float64
		for _, ms := range snap.Metrics {
			if ms.Hist == nil {
				continue
			}
			switch ms.Name {
			case "groom_duration_ns":
				groomNS += float64(ms.Hist.Sum)
				cycles += float64(ms.Hist.Count)
				p50s = append(p50s, float64(ms.Hist.P50))
			case "groom_rows":
				groomRows += float64(ms.Hist.Sum)
			}
		}
		m.set("wildfire.groom_share", groomNS/wall, "ratio")
		m.set("wildfire.groom_ms_p50", medianOrZero(p50s)/1e6, "ms")
		m.set("wildfire.groom_rows_per_s", ratio(groomRows, groomNS/1e9), "1/s")
		m.set("wildfire.postgroom_share", 0, "ratio")
		m.set("wildfire.syncindex_share", 0, "ratio")
		m.set("wildfire.postgroom_ms_p50", 0, "ms")
		m.set("wildfire.syncindex_ms_p50", 0, "ms")
		m.set("wildfire.live_union_rows", medianOrZero(tot.liveUnion), "count")
	} else {
		m.set("wildfire.groom_share", float64(p.groom)/wall, "ratio")
		m.set("wildfire.postgroom_share", float64(p.post)/wall, "ratio")
		m.set("wildfire.syncindex_share", float64(p.sync)/wall, "ratio")
		m.set("wildfire.groom_ms_p50", median(p.grooms)/1e6, "ms")
		m.set("wildfire.groom_rows_per_s", ratio(float64(p.groomedRows), p.groom.Seconds()), "1/s")
		m.set("wildfire.postgroom_ms_p50", medianOrZero(p.posts)/1e6, "ms")
		m.set("wildfire.syncindex_ms_p50", medianOrZero(p.syncs)/1e6, "ms")
		m.set("wildfire.live_union_rows", r.explainLive(ctx), "count")
	}
	c := tot.cache
	m.set("wildfire.blockcache_hits", float64(c.Hits), "count")
	m.set("wildfire.blockcache_misses", float64(c.Misses), "count")
	m.set("wildfire.blockcache_hit_ratio", ratio(float64(c.Hits), float64(c.Hits+c.Misses)), "ratio")
	m.set("wildfire.blockcache_evictions", float64(c.Evictions), "count")
	m.set("wildfire.blockcache_dedup", float64(c.Dedups), "count")
	m.set("wildfire.blockcache_bytes", float64(c.Bytes), "B")
	m.set("core.runs_groomed", runsGroomed, "count")
	m.set("core.runs_post", runsPost, "count")
	// What tracing cost the measured rounds: the spans they recorded
	// times the calibrated cost of recording one.
	m.set("driver.trace_overhead_pct", 100*ratio(float64(tot.spans)*float64(spanCost()), float64(tot.wall)), "%")

	// Probes through the public surface.
	r.explainCosts(ctx, m)
	r.surfaceCosts(ctx, m, e.local)
	if err := r.serverCosts(ctx, m); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}

	// Replays of the hidden layers over this run's rows and objects.
	replayKeyenc(m, rows)
	if err := replayWAL(m, rows, e.w.RowsPerCommit); err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	blk, err := replayColumnar(m, e.base)
	if err != nil {
		return fmt.Errorf("columnar replay: %w", err)
	}
	if err := replayRun(m, e.base, r.rng); err != nil {
		return fmt.Errorf("run replay: %w", err)
	}
	if err := replayCore(m, rows, r.rng); err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	if err := replayExec(m, rows, blk, cutoff); err != nil {
		return fmt.Errorf("exec replay: %w", err)
	}
	if err := replaySpec(m, cutoff); err != nil {
		return fmt.Errorf("spec replay: %w", err)
	}
	if err := replayWire(m, rows); err != nil {
		return fmt.Errorf("wire replay: %w", err)
	}

	// Attribution: what the unit costs above, times the counts the
	// engine reports, account for of an operation's end-to-end time.
	// What is left is engine work no layer prices yet (version
	// reconciliation, merging, materializing and sorting row results).
	v := func(name string) float64 { return m[name].Value }
	_, blockObjs, _ := objectStats(e.base, "/block-")
	rowsPerBlock := ratio(float64(e.o.writes.Load()), float64(blockObjs))
	tableRows := float64(e.o.keys.Load())
	bd := map[string]map[string]float64{}
	for _, kind := range []string{"agg", "scan", "stream"} {
		k := r.kind(kind)
		if k.ops == 0 {
			continue
		}
		ops := float64(k.ops)
		parts := map[string]float64{"total": float64(k.ns) / ops}
		parts["storage"] = float64(k.store[scBusyNS]) / ops
		parts["columnar"] = float64(k.store[scGetOps]) / ops * rowsPerBlock * v("columnar.unmarshal_ns_per_row")
		added := tableRows // rows that reach the partial aggregate or the row buffer
		if kind == "agg" {
			added = 0.1 * tableRows
			parts["columnar"] += v("wildfire.blocks_read_per_agg") * rowsPerBlock * v("columnar.cmpselect_ns_per_row")
			parts["exec"] = (v("wildfire.blocks_read_per_agg") + v("wildfire.blocks_synopsis_skipped_per_agg")) * v("exec.can_match_block_ns")
		}
		parts["exec"] += v("exec.bind_us")*1e3 + added*v("exec.partial_add_ns_per_row") + v("exec.finalize_us")*1e3
		out := float64(k.rows) / ops
		parts["umzi"] = out * v("umzi.drain_ns_per_row")
		if e.w.Remote {
			parts["wire"] = out*(v("wire.append_row_ns")+v("wire.decode_row_ns")) + (1+out/512)*v("wire.frame_write_read_us")*1e3
			parts["client"] = out * (v("client.drain_ns_per_row") - v("wire.decode_row_ns"))
			parts["server"] = v("server.ping_rtt_us")*1e3 + v("wildfire.spec_unmarshal_ns")
		}
		covered := 0.0
		for name, ns := range parts {
			if name != "total" {
				covered += ns
			}
		}
		parts["wildfire"] = parts["total"] - covered // the remainder
		parts["covered"] = covered
		bd[kind] = parts
	}
	r.breakdown = bd
	m.set("driver.attribution_coverage_agg", ratio(bd["agg"]["covered"], bd["agg"]["total"]), "ratio")
	m.set("driver.attribution_coverage_stream", ratio(bd["stream"]["covered"], bd["stream"]["total"]), "ratio")
	return nil
}
