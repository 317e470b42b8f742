package wildfire

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
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
// synopses prove no row can match, before the fetch for a post block
// whose synopsis the zone version holds — and unions in the live zone at
// the query timestamp for freshness. Versions reconcile through the
// shadow (shadow.go): the keys of the pending versions and live records,
// in a set keyed on primary-key fingerprints, against which every
// selected post-groomed row is probed by its block's fingerprint column
// — an exact key comparison runs only on a fingerprint hit (the trace's
// shadow_checks). Each shard reduces to an exec.Partial (per-group
// aggregate states, not rows — row-shaped plans carry their qualifying
// projected rows), which is what the coordinator merges before
// finalizing (ShardedEngine.execPartials). A shard adds its rows in one
// stated order: post-groomed blocks in zone order, then the pending
// winners in zone order, then the live rows in commit-sequence order;
// a row plan emits them in exactly that order, a limited one only the
// first Limit of them.

// liveBest is the newest committed-but-ungroomed version of one key.
type liveBest struct {
	row Row
	seq uint64
}

// liveOverlay takes a query's cut (capture) and folds its live records
// into the newest version per primary key. The map is nil when the
// query does not read live.
func (e *shard) liveOverlay(opts QueryOptions) (map[string]liveBest, *zoneVersion, types.TS) {
	var live map[string]liveBest
	var visit func(logRecord)
	if opts.IncludeLive {
		live = make(map[string]liveBest)
		var pk []byte
		visit = func(rec logRecord) {
			pk = e.table.appendPK(pk[:0], rec.row)
			if best, ok := live[string(pk)]; !ok || rec.commitSeq >= best.seq {
				live[string(pk)] = liveBest{row: rec.row, seq: rec.commitSeq}
			}
		}
	}
	v, ts, ok := e.capture(opts, visit)
	if !ok {
		live = nil
	}
	return live, v, ts
}

// scanBlk is one zone block of a query, with its object name and skip
// verdict; blk is nil, and name empty, when a post block's synopsis
// skipped it before its fetch.
type scanBlk struct {
	blk  *columnar.Block
	name string
	skip exec.SkipReason
}

// executeBound evaluates a bound plan on this shard into a partial
// result. Multi-version, multi-zone semantics match Scan: of every
// primary key, exactly the newest version with beginTS <= TS qualifies
// (plus live records when requested), and the filter applies to that
// reconciled row.
//
// Post-groomed versions have a resolved endTS (§2.1: in the block, or a
// sidecar override in the version), so such a row is visible exactly
// when beginTS <= zts < endTS — no comparison with other versions, and
// a post-groomed block the synopses or a bloom filter exclude is never
// scanned; once the version holds its synopsis, one the synopses exclude
// is not even fetched. zts clamps TS to the version's lastGroomTS, which
// bounds every finite endTS in it, so that a current version stays
// visible at MaxTS.
// Pending groomed blocks and the live zone go through the shadow, a
// per-key winner set keyed on primary-key fingerprints (newest beginTS
// wins, live beats groomed), skipped pending blocks included since their
// versions still shadow; a post-groomed row whose key is in the set is
// dropped, pending and live versions being newer. A post row is checked
// against the set's keys exactly only when its fingerprint hits.
func (e *shard) executeBound(ctx context.Context, bound *exec.BoundPlan, opts QueryOptions) (*exec.Partial, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("wildfire: engine closed")
	}
	epoch := e.gate.enter()
	defer e.gate.exit(epoch)
	start := time.Now()
	live, v, ts := e.liveOverlay(opts)
	liveUnion := int64(len(live))
	zts := min(ts, v.lastGroomTS)

	pkIdx := make([]int, len(e.table.PrimaryKey))
	for i, k := range e.table.PrimaryKey {
		pkIdx[i] = e.table.colIndex(k)
	}
	nUser := len(e.table.Columns)

	// Phase 1: classify every block of the version, in parallel across
	// the scan pool (positional writes keep the zone order deterministic;
	// overlapping storage reads is where a cold scan wins first). A post
	// block whose synopsis the version already holds is classified from
	// it, and fetched only if it survives; every other block is fetched
	// and classified from its decode — pending blocks always, since their
	// versions shadow even when skipped. The verdicts are the same either
	// way: the synopsis is the block's min/max.
	nPending := len(v.pending)
	classified := make([]scanBlk, nPending+len(v.post))
	err := e.scanPool.each(ctx, len(classified), func(i int) error {
		var pb *postBlock
		var name string
		if i < nPending {
			name = groomedBlockName(e.table.Name, v.pending[i])
		} else {
			pb = v.post[i-nPending]
			name = postBlockName(e.table.Name, pb.id)
			if syn := pb.syn.Load(); syn != nil && !(visibleAt(syn, nUser, ts) && bound.CanMatchBlock(syn)) {
				classified[i].skip = exec.SkipSynopsis
				return nil
			}
		}
		blk, err := e.fetchBlock(ctx, name)
		if err != nil {
			return err
		}
		if pb != nil && pb.syn.Load() == nil {
			pb.syn.CompareAndSwap(nil, blk.Synopsis())
		}
		classified[i] = scanBlk{blk: blk, name: name, skip: exec.SkipSynopsis}
		if visibleAt(blk, nUser, ts) {
			classified[i].skip = bound.BlockSkip(blk)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var blocksRead, blocksSkipped, blocksBloomSkipped, blocksFetched, winnerInserts, shadowChecks int64
	for _, sb := range classified {
		if sb.skip != exec.SkipNone {
			blocksSkipped++
		} else {
			blocksRead++
		}
		if sb.skip == exec.SkipBloom {
			blocksBloomSkipped++
		}
		if sb.blk != nil {
			blocksFetched++
		}
	}

	e.mx.execBlocksRead.Add(blocksRead)
	e.mx.execBlocksSkipped.Add(blocksSkipped)
	e.mx.execBlocksBloomSkipped.Add(blocksBloomSkipped)
	opts.Trace.AddBlocksRead(blocksRead)
	opts.Trace.AddBlocksSkipped(blocksSkipped)
	opts.Trace.AddBlocksBloomSkipped(blocksBloomSkipped)
	opts.Trace.AddBlocksFetched(blocksFetched)
	opts.Trace.AddLiveUnion(liveUnion)
	defer func() {
		opts.Trace.AddWinnerInserts(winnerInserts)
		opts.Trace.AddShadowChecks(shadowChecks)
		opts.Trace.AddSpan(obs.TraceSpan{
			Shard:              e.table.Name,
			BlocksRead:         blocksRead,
			BlocksSkipped:      blocksSkipped,
			BlocksBloomSkipped: blocksBloomSkipped,
			BlocksFetched:      blocksFetched,
			LiveUnion:          liveUnion,
			WinnerInserts:      winnerInserts,
			ShadowChecks:       shadowChecks,
			Elapsed:            time.Since(start),
		})
	}()

	part := bound.NewPartial()
	var tsBuf []uint64

	// Phase 2: reconcile the newest visible pending version per primary
	// key into the shadow. Live records are newer than every groomed
	// version of their key (the groomer will assign them a larger
	// beginTS), so they supersede. A pending block the skip structures
	// excluded keeps a nil selection: its versions still shadow older
	// ones but cannot themselves qualify.
	shadow := newShadowSet(classified[:nPending], len(live), pkIdx)
	sels := make([]*exec.Bitmap, nPending)
	for i, sb := range classified[:nPending] {
		if sb.skip == exec.SkipNone {
			sels[i] = bound.FilterBlock(sb.blk)
		}
		tsBuf = sb.blk.AppendNums(nUser, tsBuf[:0])
		var fps []uint32
		for r, beginTS := range tsBuf {
			if types.TS(beginTS) > ts {
				continue
			}
			if fps == nil {
				fps = e.keyFingerprints(sb, pkIdx)
			}
			winnerInserts++
			shadow.addPending(fps[r], i, r, beginTS)
		}
	}
	for _, best := range live {
		shadow.addLive(liveFingerprint(best.row, pkIdx), best.row)
	}
	winnerInserts += liveUnion

	// Phase 3: post-groomed rows visible by beginTS/endTS, minus overrides
	// in effect at zts and keys the shadow holds, each block's survivors
	// accumulated in one call. A row whose fingerprint misses the shadow
	// is kept with no key work; a hit is settled by the exact check.
	for i, sb := range classified[nPending:] {
		if sb.skip != exec.SkipNone {
			continue
		}
		blk := sb.blk
		sel := bound.FilterBlock(blk)
		vis := exec.NewBitmap(blk.NumRows())
		blk.CmpSelect(nUser, keyenc.U64(uint64(zts)), true, true, false, vis.Words())
		sel.And(vis)
		blk.CmpSelect(nUser+1, keyenc.U64(uint64(zts)), false, false, true, vis.Words())
		sel.And(vis)
		words := sel.Words()
		for _, o := range v.endTS[v.post[i].id] {
			if o.ts <= zts {
				words[o.offset>>6] &^= 1 << (o.offset & 63)
			}
		}
		if shadow.n > 0 {
			var fps []uint32
			for w, word := range words {
				for ; word != 0; word &= word - 1 {
					if fps == nil {
						fps = e.keyFingerprints(sb, pkIdx)
					}
					bit := bits.TrailingZeros64(word)
					r := w<<6 | bit
					if !shadow.hit(fps[r]) {
						continue
					}
					shadowChecks++
					if shadow.holds(fps[r], blk, r) {
						words[w] &^= 1 << bit
					}
				}
			}
		}
		part.AddBlock(blk, sel)
	}

	// The qualifying pending winners, one bitmap per pending block, fed
	// in zone order.
	for i, win := range shadow.winners(sels) {
		if win != nil {
			part.AddBlock(classified[i].blk, win)
		}
	}
	addLiveRows(part, bound, live)
	return part, nil
}

// visibleAt reports whether a block, by its beginTS synopsis, holds a
// version with beginTS <= ts; an empty block holds none.
func visibleAt(syn exec.BlockSynopsis, nUser int, ts types.TS) bool {
	min, ok := syn.ColumnMin(nUser)
	return ok && types.TS(min.Uint()) <= ts
}

// addLiveRows feeds the qualifying live-zone rows into the partial in
// commit-sequence order (unique per shard), through one view re-pointed
// per row, so one live zone always yields one row order.
func addLiveRows(part *exec.Partial, bound *exec.BoundPlan, live map[string]liveBest) {
	var row Row
	view := exec.RowView(func(c int) keyenc.Value { return row[c] })
	var wins []liveBest
	for _, best := range live {
		row = best.row
		if bound.Matches(view) {
			wins = append(wins, best)
		}
	}
	slices.SortFunc(wins, func(a, b liveBest) int { return cmp.Compare(a.seq, b.seq) })
	for _, best := range wins {
		row = best.row
		part.Add(view)
	}
}
