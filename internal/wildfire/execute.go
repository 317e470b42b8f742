package wildfire

import (
	"context"
	"fmt"
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

// scanBlk is one visible zone block of a query, with its skip verdict.
// drop marks a block with nothing visible at the query timestamp; it is
// compacted away after the parallel classify.
type scanBlk struct {
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
// columns, with rows materialized only after selection.
//
// Only the block fetch/decode/classify pass runs on the engine's
// intra-shard scan pool (Config.ScanParallelism workers); winner
// reconciliation is one sequential pass, a global per-key argmax.
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
		sb := scanBlk{blk: blk}
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

	// Phase 2: reconcile the newest visible version per primary key
	// across blocks, then emit the winners their block's selection bitmap
	// accepts.
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
