package wildfire

import (
	"context"
	"fmt"
	"sort"
	"time"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/types"
)

// The analytical execution path (paper §1, §7: Umzi exists to serve the
// analytical side of HTAP). Unlike the key-side queries in query.go,
// which walk the index and fetch records RID by RID, executeBound
// evaluates a plan block-at-a-time directly over the columnar groomed and
// post-groomed blocks — skipping blocks whose per-column min/max
// synopses prove no row can match — and unions in the live zone at the
// query timestamp for freshness. Each shard reduces to an exec.Partial
// (per-group aggregate states, not rows — row-shaped plans carry their
// qualifying projected rows), which is what the coordinator merges
// before finalizing (ShardedEngine.execPartials).

// execCandidate is one primary key's newest visible version found so
// far: either a (block, row) reference or a live-zone row. sel is the
// block's vectorized selection bitmap; it is nil when the version sits
// in a block the skip structures excluded — the version still shadows
// older ones but cannot itself qualify.
type execCandidate struct {
	beginTS uint64
	blk     *columnar.Block
	row     int
	liveRow Row
	sel     *exec.Bitmap
}

// liveBest is the newest committed-but-ungroomed version of one key.
type liveBest struct {
	row Row
	seq uint64
}

// liveOverlay takes a query's cut (capture) and folds its live records
// into the newest version per primary key. The map is nil when the
// query does not read live.
func (e *Engine) liveOverlay(opts QueryOptions) (map[string]liveBest, *zoneVersion, types.TS) {
	var live map[string]liveBest
	var visit func(logRecord)
	if opts.IncludeLive {
		live = make(map[string]liveBest)
		visit = func(rec logRecord) {
			pk := e.table.pkEncoding(rec.row)
			if best, ok := live[pk]; !ok || rec.commitSeq >= best.seq {
				live[pk] = liveBest{row: rec.row, seq: rec.commitSeq}
			}
		}
	}
	v, ts, ok := e.capture(opts, visit)
	if !ok {
		live = nil
	}
	return live, v, ts
}

// scanBlk is one visible zone block of a query, with its skip verdict
// and object name (the block-cache key the fast path memoizes under).
// drop marks a block with nothing visible at the query timestamp; it is
// compacted away after the parallel classify.
type scanBlk struct {
	name string
	blk  *columnar.Block
	skip exec.SkipReason
	drop bool
}

// executeBound evaluates a bound plan on this shard into a partial
// result. Multi-version, multi-zone semantics match Scan: of every
// primary key, exactly the newest version with beginTS <= TS qualifies
// (plus live records when requested), and the filter applies to that
// reconciled row — an old version whose key was since updated never
// leaks into the result.
//
// Block-at-a-time with three levels of skipping: a block whose minimum
// beginTS exceeds the timestamp holds no visible rows and is skipped
// outright; a block excluded by the filter synopses or by a per-column
// bloom filter is scanned for its key and beginTS columns only (its
// versions may still shadow older versions of the same keys elsewhere),
// never materializing data columns.
//
// Predicates evaluate vectorized (exec.BoundPlan.FilterBlock): one
// selection bitmap per block, computed directly over the encoded
// columns, with rows materialized only after selection. When the
// visible blocks provably hold at most one version per key — pairwise
// disjoint primary-key ranges across blocks and distinct keys within
// each scanned block — the per-row winner reconciliation is skipped
// entirely and selected visible rows feed the partial directly.
//
// Both the block fetch/classify pass and the fast path run on the
// engine's intra-shard scan pool (Config.ScanParallelism workers): the
// candidate block list is partitioned into contiguous chunks, each
// worker reduces its chunk into a private exec.Partial over its own
// scratch buffers — BoundPlan and Block are read-only and shared — and
// the shard merges the partials before the cross-shard merge. The
// overlap fallback stays sequential: winner reconciliation is a global
// per-key argmax.
func (e *Engine) executeBound(ctx context.Context, bound *exec.BoundPlan, opts QueryOptions) (*exec.Partial, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("wildfire: engine closed")
	}
	epoch := e.gate.enter()
	defer e.gate.exit(epoch)
	start := time.Now()
	live, v, ts := e.liveOverlay(opts)
	liveUnion := int64(len(live))

	pkIdx := make([]int, len(e.table.PrimaryKey))
	for i, k := range e.table.PrimaryKey {
		pkIdx[i] = e.table.colIndex(k)
	}
	nUser := len(e.table.Columns)

	// Phase 1: fetch the version's blocks and classify every block, in
	// parallel across the scan pool (positional writes keep the zone
	// order deterministic; overlapping storage reads is where a cold
	// scan wins first).
	names := make([]string, 0, len(v.pending)+len(v.post))
	for _, id := range v.pending {
		names = append(names, groomedBlockName(e.table.Name, id))
	}
	for _, id := range v.post {
		names = append(names, postBlockName(e.table.Name, id))
	}
	classified := make([]scanBlk, len(names))
	err := e.scanPool.each(ctx, len(names), func(i int) error {
		blk, err := e.fetchBlock(ctx, names[i])
		if err != nil {
			return err
		}
		sb := scanBlk{name: names[i], blk: blk}
		if min, ok := blk.ColumnMin(nUser); !ok || types.TS(min.Uint()) > ts {
			sb.drop = true // empty, or nothing visible at this timestamp
		} else {
			sb.skip = bound.BlockSkip(blk)
		}
		classified[i] = sb
		return nil
	})
	if err != nil {
		return nil, err
	}
	var blocksRead, blocksSkipped, blocksBloomSkipped int64
	blks := classified[:0]
	for _, sb := range classified {
		if sb.drop {
			blocksSkipped++
			continue
		}
		switch sb.skip {
		case exec.SkipNone:
			blocksRead++
		case exec.SkipBloom:
			blocksSkipped++
			blocksBloomSkipped++
		default:
			// Key/beginTS columns only: the synopsis proved no row can
			// qualify, so the scan counts as skipped for skip-ratio purposes.
			blocksSkipped++
		}
		blks = append(blks, sb)
	}

	e.mx.execBlocksRead.Add(blocksRead)
	e.mx.execBlocksSkipped.Add(blocksSkipped)
	e.mx.execBlocksBloomSkipped.Add(blocksBloomSkipped)
	opts.Trace.AddBlocksRead(blocksRead)
	opts.Trace.AddBlocksSkipped(blocksSkipped)
	opts.Trace.AddBlocksBloomSkipped(blocksBloomSkipped)
	opts.Trace.AddLiveUnion(liveUnion)
	defer func() {
		opts.Trace.AddSpan(obs.TraceSpan{
			Shard:              e.table.Name,
			BlocksRead:         blocksRead,
			BlocksSkipped:      blocksSkipped,
			BlocksBloomSkipped: blocksBloomSkipped,
			LiveUnion:          liveUnion,
			Elapsed:            time.Since(start),
		})
	}()

	part := bound.NewPartial()
	var keyBuf []byte
	var tsBuf []uint64

	// Phase 2: if no key can have two versions across the visible blocks,
	// winner reconciliation is a no-op — emit selected visible rows
	// directly, suppressing only live-superseded keys. Chunks of the
	// block list reduce into per-worker partials merged at the shard.
	if e.disjointUniqueBlocks(blks, pkIdx) {
		nw := e.scanPar
		if nw > len(blks) {
			nw = len(blks)
		}
		if nw <= 1 {
			e.scanChunk(bound, part, blks, ts, live, pkIdx, nUser)
		} else {
			parts := make([]*exec.Partial, nw)
			err := e.scanPool.each(ctx, nw, func(w int) error {
				lo, hi := w*len(blks)/nw, (w+1)*len(blks)/nw
				p := bound.NewPartial()
				e.scanChunk(bound, p, blks[lo:hi], ts, live, pkIdx, nUser)
				parts[w] = p
				return nil
			})
			if err != nil {
				return nil, err
			}
			for _, p := range parts {
				part.Merge(p)
			}
		}
		addLiveRows(part, bound, live)
		return part, nil
	}

	// Phase 3: general path — reconcile the newest visible version per
	// primary key across blocks, then emit the winners their block's
	// selection bitmap accepts.
	winners := make(map[string]execCandidate)
	for _, sb := range blks {
		var sel *exec.Bitmap
		if sb.skip == exec.SkipNone {
			sel = bound.FilterBlock(sb.blk)
		}
		blk := sb.blk
		tsBuf = blk.AppendNums(nUser, tsBuf[:0])
		for r := 0; r < blk.NumRows(); r++ {
			beginTS := tsBuf[r]
			if types.TS(beginTS) > ts {
				continue
			}
			keyBuf = keyBuf[:0]
			for _, c := range pkIdx {
				keyBuf = keyenc.Append(keyBuf, blk.Value(r, c))
			}
			if w, ok := winners[string(keyBuf)]; ok && w.beginTS >= beginTS {
				continue
			}
			winners[string(keyBuf)] = execCandidate{beginTS: beginTS, blk: blk, row: r, sel: sel}
		}
	}
	// Committed-but-ungroomed records are newer than every groomed
	// version of their key (the groomer will assign them a larger
	// beginTS), so the newest live version per key supersedes any zone
	// candidate.
	for pk, best := range live {
		winners[pk] = execCandidate{beginTS: uint64(types.MaxTS), liveRow: best.row}
	}
	for _, w := range winners {
		if w.liveRow != nil {
			row := w.liveRow
			view := exec.RowView(func(c int) keyenc.Value { return row[c] })
			if bound.Matches(view) {
				part.Add(view)
			}
			continue
		}
		if w.sel == nil || !w.sel.Get(w.row) {
			continue
		}
		blk, r := w.blk, w.row
		part.Add(func(c int) keyenc.Value { return blk.Value(r, c) })
	}
	return part, nil
}

// scanChunk is one fast-path worker: it reduces a contiguous run of the
// candidate block list into a private partial. bound, the blocks and
// the live map are shared read-only across workers; the partial and the
// scratch buffers are worker-owned.
func (e *Engine) scanChunk(bound *exec.BoundPlan, part *exec.Partial, blks []scanBlk, ts types.TS, live map[string]liveBest, pkIdx []int, nUser int) {
	var keyBuf []byte
	var tsBuf []uint64
	for _, sb := range blks {
		if sb.skip != exec.SkipNone {
			continue // proved unmatchable; shadows nothing (unique keys)
		}
		sel := bound.FilterBlock(sb.blk)
		if sel.None() {
			continue
		}
		blk := sb.blk
		tsBuf = blk.AppendNums(nUser, tsBuf[:0])
		sel.ForEach(func(r int) {
			if types.TS(tsBuf[r]) > ts {
				return
			}
			if len(live) > 0 {
				keyBuf = keyBuf[:0]
				for _, c := range pkIdx {
					keyBuf = keyenc.Append(keyBuf, blk.Value(r, c))
				}
				if _, shadowed := live[string(keyBuf)]; shadowed {
					return
				}
			}
			part.Add(func(c int) keyenc.Value { return blk.Value(r, c) })
		})
	}
}

// addLiveRows feeds the qualifying live-zone rows into the partial.
func addLiveRows(part *exec.Partial, bound *exec.BoundPlan, live map[string]liveBest) {
	for _, best := range live {
		row := best.row
		view := exec.RowView(func(c int) keyenc.Value { return row[c] })
		if bound.Matches(view) {
			part.Add(view)
		}
	}
}

// disjointUniqueBlocks decides fast-path eligibility: true when no
// primary key can have versions in two visible blocks (the blocks'
// leading-primary-key-column ranges are pairwise disjoint) and no
// scanned block holds two versions of one key (distinct full keys,
// memoized per cached block).
func (e *Engine) disjointUniqueBlocks(blks []scanBlk, pkIdx []int) bool {
	if len(blks) == 0 {
		return true
	}
	pk0 := pkIdx[0]
	type krange struct{ min, max keyenc.Value }
	ranges := make([]krange, len(blks))
	for i, sb := range blks {
		min, ok := sb.blk.ColumnMin(pk0)
		if !ok {
			return false
		}
		max, _ := sb.blk.ColumnMax(pk0)
		ranges[i] = krange{min: min, max: max}
	}
	sort.Slice(ranges, func(i, j int) bool { return keyenc.Compare(ranges[i].min, ranges[j].min) < 0 })
	for i := 1; i < len(ranges); i++ {
		if keyenc.Compare(ranges[i-1].max, ranges[i].min) >= 0 {
			return false
		}
	}
	for _, sb := range blks {
		if sb.skip != exec.SkipNone {
			continue // never emitted; within-block duplicates are unobservable
		}
		if !e.blockPKUnique(sb.name, sb.blk, pkIdx) {
			return false
		}
	}
	return true
}
