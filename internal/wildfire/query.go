package wildfire

import (
	"bytes"
	"context"
	"fmt"

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
// Every read path exists in one implementation, the streaming one:
// ScanStreamOn / IndexOnlyStreamOn return cursors that fetch data blocks
// lazily and honor context cancellation. QueryOptions.Limit therefore
// behaves identically everywhere — it bounds the index scan, the
// verification pass and the emission, on one shard or many.

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
	// Limit stops a scan after this many rows; 0 means unlimited. The
	// sharded layer pushes the limit into every shard and stops its
	// k-way merge after emitting Limit rows, so no shard materializes
	// more than Limit rows for a limited scan. Executor plans carry their
	// own limit (exec.Plan.Limit) and ignore this one.
	Limit int
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
// the live zone, then Load the zone version. A groom that drains a log
// between the two publishes the drained records as grooming first, so
// every acknowledged record is either seen live or held by the version.
// A query that includes live passes visit, which sees every replica-log
// record and then the version's grooming records (a record may come
// twice; it carries its commit sequence). It returns the version, the
// query timestamp and whether the cut reads live: live records have no
// beginTS yet, so only reads at the newest snapshot see them.
func (e *shard) capture(opts QueryOptions, visit func(logRecord)) (*zoneVersion, types.TS, bool) {
	if visit != nil {
		for _, r := range e.replicas {
			r.scan(visit)
		}
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

// ---- Index-choice queries ------------------------------------------
//
// The *On primitives accept an index choice ("" is the primary). A
// secondary query walks the chosen index and re-validates every
// candidate against the primary at the query timestamp (see indexset.go
// on the stale-entry problem), so its results match what a
// scan-and-filter over the reconciled table would produce for the
// indexed zones. Scans do not consult the live zone.

// verifiedEntry is one secondary-index candidate that survived the
// primary back-check: the entry plus its decoded value layout
// (equality ++ sort ++ included).
type verifiedEntry struct {
	entry run.Entry
	flat  []keyenc.Value
}

// verifyCheckEvery is how many entries a verification pass processes
// between context checks.
const verifyCheckEvery = 256

// indexScanEntries runs a range scan on one index of the set and
// returns the entries a caller may act on. For secondaries every entry
// is decoded and back-checked against the primary: a candidate whose
// beginTS is no longer the row's newest visible version at ts was
// superseded under a different secondary key and is dropped. For the
// primary, flat is decoded only when decode is set. limit counts
// verified entries; 0 means unlimited. Callers hold a gate epoch.
func (e *shard) indexScanEntries(ctx context.Context, ti *tableIndex, eq, sortLo, sortHi []keyenc.Value, ts types.TS, limit int, decode bool, tr *obs.QueryTrace) ([]verifiedEntry, error) {
	if len(eq) != len(ti.spec.Equality) {
		return nil, fmt.Errorf("wildfire: index %q scan requires all equality values (%d, want %d)",
			ti.name, len(eq), len(ti.spec.Equality))
	}
	// The back-check may drop candidates, so a limited secondary scan
	// over-fetches (4x) rather than materializing every match; if the
	// drops eat the headroom, one retry rescans unbounded.
	scanLimit := limit
	if !ti.primary() && limit > 0 {
		scanLimit = 4 * limit
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entries, err := ti.idx.RangeScan(core.ScanOptions{
			Equality: eq,
			SortLo:   sortLo,
			SortHi:   sortHi,
			TS:       ts,
			Limit:    scanLimit,
		})
		if err != nil {
			return nil, err
		}
		out, err := e.verifyEntries(ctx, ti, entries, ts, limit, decode, tr)
		if err != nil {
			return nil, err
		}
		if limit == 0 || len(out) >= limit || scanLimit == 0 || len(entries) < scanLimit {
			return out, nil // limit reached, or the scan was exhaustive
		}
		scanLimit = 0
	}
}

// verifyEntry runs the primary back-check (and optional decode) over
// one scanned entry; ok=false means the candidate was superseded under
// another secondary key and must be dropped.
func (e *shard) verifyEntry(ti *tableIndex, entry run.Entry, ts types.TS, decode bool, tr *obs.QueryTrace) (verifiedEntry, bool, error) {
	ve := verifiedEntry{entry: entry}
	var err error
	if !ti.primary() || decode {
		ve.flat, err = ti.decodeFlat(entry)
		if err != nil {
			return ve, false, err
		}
	}
	if !ti.primary() {
		e.mx.backChecks.Inc()
		tr.AddBackChecked(1)
		pkEq, pkSort := ti.pkFromFlat(ve.flat)
		pe, found, err := e.idx.PointLookup(pkEq, pkSort, ts)
		if err != nil {
			return ve, false, err
		}
		if !found || pe.BeginTS != entry.BeginTS {
			e.mx.backCheckDrops.Inc()
			tr.AddBackCheckDropped(1)
			return ve, false, nil // superseded under another secondary key
		}
	}
	return ve, true, nil
}

// verifyEntries runs the primary back-check (and optional decode) over
// scanned entries, stopping after limit verified results (0 = all). The
// context is checked every verifyCheckEvery entries so a cancelled
// query abandons a large verification pass promptly.
func (e *shard) verifyEntries(ctx context.Context, ti *tableIndex, entries []run.Entry, ts types.TS, limit int, decode bool, tr *obs.QueryTrace) ([]verifiedEntry, error) {
	out := make([]verifiedEntry, 0, len(entries))
	for i, entry := range entries {
		if i%verifyCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ve, ok, err := e.verifyEntry(ti, entry, ts, decode, tr)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		out = append(out, ve)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// scanStreamOn streams the newest visible version of every key matching
// the equality values and the inclusive bounds on a prefix of the
// chosen index's sort columns, in index-key order ("" is the primary).
// The raw index walk runs up front (bounded by opts.Limit when set);
// data blocks — and, for unlimited scans, the per-entry verification
// back-check — run lazily per Next, honoring the context. The cursor
// holds a query-gate epoch until Close or exhaustion.
func (e *shard) scanStreamOn(ctx context.Context, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) (*Cursor[Record], error) {
	next, release, err := e.openIndexScan(ctx, index, eq, sortLo, sortHi, opts, false)
	if err != nil {
		return nil, err
	}
	fetch := func() (Record, bool, error) {
		ve, ok, err := next()
		if err != nil || !ok {
			return Record{}, false, err
		}
		rec, err := e.fetch(ctx, ve.entry.RID)
		if err != nil {
			return Record{}, false, err
		}
		return rec, true, nil
	}
	return newCursor(fetch, release), nil
}

// indexOnlyStreamOn is scanStreamOn without record fetches: result rows
// are assembled entirely from the chosen index, in its effective column
// order (equality, sort — including the primary-key uniquifier for
// secondaries — then included columns). Verification still runs, but
// touches only the primary index, never a data block.
func (e *shard) indexOnlyStreamOn(ctx context.Context, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions) (*Cursor[[]keyenc.Value], error) {
	next, release, err := e.openIndexScan(ctx, index, eq, sortLo, sortHi, opts, true)
	if err != nil {
		return nil, err
	}
	fetch := func() ([]keyenc.Value, bool, error) {
		ve, ok, err := next()
		if err != nil || !ok {
			return nil, false, err
		}
		return ve.flat, true, nil
	}
	return newCursor(fetch, release), nil
}

// openIndexScan is the shared front half of the streaming scans: enter
// the query gate, resolve the index, run the raw index walk, and return
// a pull function over verified entries. Limited scans verify eagerly —
// the existing over-fetch/retry machinery bounds the work to ~4x the
// limit. Unlimited scans verify LAZILY, one entry per pull: the raw
// entries are materialized (that is the core index's scan contract),
// but the expensive part — per-candidate decode and primary back-check
// — happens only as the consumer advances, so an early Close abandons
// it. The returned release func exits the gate epoch and must be called
// exactly once (the cursors do this via Close).
func (e *shard) openIndexScan(ctx context.Context, index string, eq, sortLo, sortHi []keyenc.Value, opts QueryOptions, decode bool) (func() (verifiedEntry, bool, error), func() error, error) {
	if e.closed.Load() {
		return nil, nil, fmt.Errorf("wildfire: engine closed")
	}
	ti, err := e.lookupIndex(index)
	if err != nil {
		return nil, nil, err
	}
	if len(eq) != len(ti.spec.Equality) {
		return nil, nil, fmt.Errorf("wildfire: index %q scan requires all equality values (%d, want %d)",
			ti.name, len(eq), len(ti.spec.Equality))
	}
	ts := e.resolveTS(opts)
	epoch := e.gate.enter()
	release := func() error { e.gate.exit(epoch); return nil }

	if opts.Limit > 0 {
		ves, err := e.indexScanEntries(ctx, ti, eq, sortLo, sortHi, ts, opts.Limit, decode, opts.Trace)
		if err != nil {
			release()
			return nil, nil, err
		}
		i := 0
		next := func() (verifiedEntry, bool, error) {
			if err := ctx.Err(); err != nil {
				return verifiedEntry{}, false, err
			}
			if i >= len(ves) {
				return verifiedEntry{}, false, nil
			}
			ve := ves[i]
			i++
			return ve, true, nil
		}
		return next, release, nil
	}

	entries, err := ti.idx.RangeScan(core.ScanOptions{
		Equality: eq,
		SortLo:   sortLo,
		SortHi:   sortHi,
		TS:       ts,
	})
	if err != nil {
		release()
		return nil, nil, err
	}
	i := 0
	next := func() (verifiedEntry, bool, error) {
		for {
			if i%verifyCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return verifiedEntry{}, false, err
				}
			}
			if i >= len(entries) {
				return verifiedEntry{}, false, nil
			}
			entry := entries[i]
			i++
			ve, ok, err := e.verifyEntry(ti, entry, ts, decode, opts.Trace)
			if err != nil {
				return verifiedEntry{}, false, err
			}
			if !ok {
				continue
			}
			return ve, true, nil
		}
	}
	return next, release, nil
}
