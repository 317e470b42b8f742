package wildfire

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"umzi/internal/core"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/run"
	"umzi/internal/types"
)

// Query front end. Depending on the freshness requirement a query reads
// the live zone, the groomed zone and/or the post-groomed zone (§3): the
// indexed zones are served by Umzi; the live zone — small by construction
// because the groomer runs every second — is scanned directly when the
// caller asks for it.
//
// An ordered index scan has one implementation, indexStream: a lazy
// cursor over one shard's index walk whose secondary candidates are
// back-checked against the primary a chunk at a time, through one
// sorted LookupBatch per chunk (§7.2). RunQuery's index plans, the
// executor's index plan and every shard of a scatter run through it, so
// a row limit bounds the index walk, the back-check and the emission
// the same way on one shard or many.

// QueryOptions control snapshot and freshness semantics.
type QueryOptions struct {
	// TS is the snapshot timestamp. Zero selects the newest groomed
	// snapshot (LastGroomTS), the default read point of §2.1's
	// quorum-readable semantics.
	TS types.TS
	// IncludeLive additionally scans committed-but-ungroomed records,
	// trading latency for freshness. Live records have no final beginTS
	// yet, so they are only consulted for reads at the newest snapshot.
	IncludeLive bool
	// NoIndexSelection makes executePlan evaluate its plan as a zone scan
	// even when the filter matches an index (baselines, ablations).
	NoIndexSelection bool
	// Trace, when set, receives the query's execution profile: per-shard
	// spans, blocks read vs. synopsis-skipped, live-union size, and
	// back-check counts. Nil is a no-op (every trace method is
	// nil-receiver safe).
	Trace *obs.QueryTrace
}

func (e *shard) resolveTS(opts QueryOptions) types.TS {
	_, ts, _ := e.capture(opts, nil)
	return ts
}

// capture takes a query's cut of the shard with the one read rule: read
// the live zone, then Load the zone version. A groom that drains the log
// between the two publishes the drained records as grooming first, so
// every acknowledged record is either seen live or held by the version.
// A query that includes live passes visit, which sees every committed-log
// record and then the version's grooming records (a record may come
// twice; it carries its commit sequence). It returns the version, the
// query timestamp and whether the cut reads live: live records have no
// beginTS yet, so only reads at the newest snapshot see them.
func (e *shard) capture(opts QueryOptions, visit func(logRecord)) (*zoneVersion, types.TS, bool) {
	if visit != nil {
		e.scanLog(visit)
	}
	v := e.zone.Load()
	ts := opts.TS
	if ts == 0 {
		ts = v.lastGroomTS
	}
	if visit == nil || ts < v.lastGroomTS {
		return v, ts, false
	}
	for _, rec := range v.grooming {
		visit(rec)
	}
	return v, ts, true
}

// getOn returns the newest visible version of a primary key (its
// equality and sort column values), consulting the live zone when the
// options ask for it.
func (e *shard) getOn(ctx context.Context, eq, sortv []keyenc.Value, opts QueryOptions) (Record, bool, error) {
	if e.closed.Load() {
		return Record{}, false, fmt.Errorf("wildfire: engine closed")
	}
	if err := ctx.Err(); err != nil {
		return Record{}, false, err
	}
	epoch := e.gate.enter()
	defer e.gate.exit(epoch)
	row, ts := e.liveLookup(eq, sortv, opts)
	if row != nil {
		return Record{Row: row, BeginTS: types.MaxTS, EndTS: types.MaxTS}, true, nil
	}
	entry, found, err := e.idx.PointLookup(eq, sortv, ts)
	if err != nil || !found {
		return Record{}, false, err
	}
	rec, err := e.fetch(ctx, entry.RID)
	if err != nil {
		return Record{}, false, err
	}
	return rec, true, nil
}

// liveLookup takes a point get's cut (capture): it returns the newest
// live version of the key — nil when the get does not read live or the
// key has none — and the query timestamp. Linear in live-zone size,
// which the groomer keeps small. The target composite is encoded once;
// each live record is compared column by column against the matching
// target segment through a reusable scratch buffer, bailing at the first
// mismatch instead of building a full composite (and an allocation) per
// record.
func (e *shard) liveLookup(eq, sortv []keyenc.Value, opts QueryOptions) (Row, types.TS) {
	if !opts.IncludeLive {
		return nil, e.resolveTS(opts)
	}
	primary := e.indexSet()[0]
	target := keyenc.AppendComposite(keyenc.AppendComposite(nil, eq...), sortv...)
	keyOrds := make([]int, 0, len(primary.eqIdx)+len(primary.sortIdx))
	keyOrds = append(keyOrds, primary.eqIdx...)
	keyOrds = append(keyOrds, primary.sortIdx...)
	var scratch []byte
	var best Row
	var bestSeq uint64
	_, ts, live := e.capture(opts, func(rec logRecord) {
		scratch = scratch[:0]
		for _, ord := range keyOrds {
			prev := len(scratch)
			scratch = keyenc.Append(scratch, rec.row[ord])
			if len(scratch) > len(target) || !bytes.Equal(scratch[prev:], target[prev:len(scratch)]) {
				return // this column already differs from the target
			}
		}
		if len(scratch) != len(target) {
			return
		}
		if rec.commitSeq >= bestSeq {
			best = rec.row
			bestSeq = rec.commitSeq
		}
	})
	if !live {
		return nil, ts
	}
	return best, ts
}

// getBatch resolves a batch of point lookups through the index's
// sorted batch path (§7.2).
func (e *shard) getBatch(ctx context.Context, keys []core.LookupKey, opts QueryOptions) ([]Record, []bool, error) {
	if e.closed.Load() {
		return nil, nil, fmt.Errorf("wildfire: engine closed")
	}
	epoch := e.gate.enter()
	defer e.gate.exit(epoch)
	entries, found, err := e.idx.LookupBatch(keys, e.resolveTS(opts))
	if err != nil {
		return nil, nil, err
	}
	out := make([]Record, len(keys))
	for i := range entries {
		if !found[i] {
			continue
		}
		rec, err := e.fetch(ctx, entries[i].RID)
		if err != nil {
			return nil, nil, err
		}
		out[i] = rec
	}
	return out, found, nil
}

// ---- Ordered index scans -------------------------------------------
//
// A scan walks one index of the set ("" is the primary). A secondary
// scan re-validates every candidate against the primary at the query
// timestamp (see indexset.go on the stale-entry problem), so its results
// match what a scan-and-filter over the reconciled table would produce
// for the indexed zones. Scans do not consult the live zone.

// verifiedEntry is one index candidate that survived the primary
// back-check: the scanned entry plus, when decoded, its value layout
// (equality ++ sort ++ included).
type verifiedEntry struct {
	entry *run.Entry
	flat  []keyenc.Value
}

// verifyCheckEvery is the most candidates one back-check chunk holds:
// one LookupBatch, and one context check, per chunk.
const verifyCheckEvery = 256

// backCheck is the one verifier of index candidates. It appends the
// entries that survive to out, decoded when decode is set (secondaries
// always decode, for their primary keys). A secondary's candidates are
// looked up in the primary at ts, one sorted LookupBatch per chunk of
// verifyCheckEvery; a candidate whose beginTS is no longer its row's
// newest visible version was superseded under a different secondary key
// and is dropped. The context is checked once per chunk. Callers hold a
// gate epoch.
func (e *shard) backCheck(ctx context.Context, ti *tableIndex, entries []run.Entry, ts types.TS, decode bool, tr *obs.QueryTrace, out []verifiedEntry) ([]verifiedEntry, error) {
	decode = decode || !ti.primary()
	var keys []core.LookupKey
	for len(entries) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := entries[:min(len(entries), verifyCheckEvery)]
		entries = entries[len(chunk):]
		first := len(out)
		out = slices.Grow(out, len(chunk))
		keys = keys[:0]
		for i := range chunk {
			ve := verifiedEntry{entry: &chunk[i]}
			if decode {
				var err error
				if ve.flat, err = ti.decodeFlat(chunk[i]); err != nil {
					return nil, err
				}
			}
			if !ti.primary() {
				pkEq, pkSort := ti.pkFromFlat(ve.flat)
				keys = append(keys, core.LookupKey{Equality: pkEq, Sort: pkSort})
			}
			out = append(out, ve)
		}
		if ti.primary() {
			continue
		}
		e.mx.backChecks.Add(int64(len(chunk)))
		tr.AddBackChecked(int64(len(chunk)))
		current, found, err := e.idx.LookupBatch(keys, ts)
		if err != nil {
			return nil, err
		}
		kept := out[:first]
		for i, ve := range out[first:] {
			if found[i] && current[i].BeginTS == ve.entry.BeginTS {
				kept = append(kept, ve)
			}
		}
		if dropped := int64(len(out) - len(kept)); dropped > 0 {
			e.mx.backCheckDrops.Add(dropped)
			tr.AddBackCheckDropped(dropped)
		}
		out = kept
	}
	return out, nil
}

// indexScan is one ordered scan of an index: the equality values,
// inclusive bounds on a prefix of its sort columns, and a row limit
// (0 = all). exact reports that the bounds absorb the query's filter,
// so every verified entry becomes a row and the limit may bound the raw
// index walk; decode asks for every entry's decoded values.
type indexScan struct {
	index      string
	eq, lo, hi []keyenc.Value
	limit      int
	exact      bool
	decode     bool
}

// rowStep turns one verified entry into a result on the shard that
// produced it — in its scatter worker, so record fetches overlap across
// shards. ok=false drops the entry (a residual filter rejected it).
type rowStep[T any] func(ctx context.Context, e *shard, ve verifiedEntry) (T, bool, error)

// indexStream is the one ordered index scan of a shard: it walks the
// index at the query timestamp, back-checks the candidates a chunk at a
// time, and emits step's results lazily in index-key order, each keyed
// by its entry's key bytes for the cross-shard merge. A limited scan
// stops after sc.limit results, and no chunk holds more candidates than
// results still wanted. An exact limited scan also bounds the walk:
// sc.limit entries on the primary, 4x on a secondary, whose back-check
// may drop candidates. If that window runs dry short of the limit, one
// unbounded walk resumes after the window's last key — nothing is
// verified twice. The cursor holds a query-gate epoch until Close or
// exhaustion.
func indexStream[T any](ctx context.Context, e *shard, sc indexScan, opts QueryOptions, step rowStep[T]) (*Cursor[shardItem[T]], error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("wildfire: engine closed")
	}
	ti, err := e.lookupIndex(sc.index)
	if err != nil {
		return nil, err
	}
	ts := e.resolveTS(opts)
	window := 0
	if sc.exact && sc.limit > 0 {
		window = sc.limit
		if !ti.primary() {
			window *= 4
		}
	}
	epoch := e.gate.enter()
	release := func() error { e.gate.exit(epoch); return nil }
	walk := core.ScanOptions{Equality: sc.eq, SortLo: sc.lo, SortHi: sc.hi, TS: ts, Limit: window}
	raw, err := ti.idx.RangeScan(walk)
	if err != nil {
		release()
		return nil, err
	}
	resume := window > 0 && len(raw) == window
	var buf []verifiedEntry
	var last run.Entry
	next, emitted := 0, 0
	fetch := func() (shardItem[T], bool, error) {
		for {
			for next < len(buf) {
				ve := buf[next]
				next++
				v, ok, err := step(ctx, e, ve)
				if err != nil {
					return shardItem[T]{}, false, err
				}
				if ok {
					emitted++
					return shardItem[T]{val: v, key: ve.entry.Key}, true, nil
				}
			}
			if err := ctx.Err(); err != nil {
				return shardItem[T]{}, false, err
			}
			if sc.limit > 0 && emitted >= sc.limit {
				return shardItem[T]{}, false, nil
			}
			if len(raw) == 0 {
				if !resume {
					return shardItem[T]{}, false, nil
				}
				// The window ran dry: walk on, unbounded, from the
				// window's last key (inclusive, so skip it).
				resume = false
				flat, err := ti.decodeFlat(last)
				if err != nil {
					return shardItem[T]{}, false, err
				}
				nEq := len(ti.spec.Equality)
				walk.SortLo, walk.Limit = flat[nEq:nEq+len(ti.spec.Sort)], 0
				if raw, err = ti.idx.RangeScan(walk); err != nil {
					return shardItem[T]{}, false, err
				}
				for len(raw) > 0 && bytes.Compare(raw[0].Key, last.Key) <= 0 {
					raw = raw[1:]
				}
				continue
			}
			n := min(len(raw), verifyCheckEvery)
			if sc.limit > 0 {
				n = min(n, sc.limit-emitted)
			}
			if buf, err = e.backCheck(ctx, ti, raw[:n], ts, sc.decode, opts.Trace, buf[:0]); err != nil {
				return shardItem[T]{}, false, err
			}
			last, raw, next = raw[n-1], raw[n:], 0
		}
	}
	return newCursor(fetch, release), nil
}
