package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"umzi/internal/run"
	"umzi/internal/types"
)

// recover rebuilds the index state from shared storage (§5.5):
//
//  1. read the newest meta record for the evolve watermark;
//  2. list each zone's run objects and parse their headers — unparseable
//     objects (run.ErrCorrupt) are incomplete writes and are deleted, and
//     a header that cannot be read fails the recovery;
//  3. per zone, sort runs by descending end groomed block ID and add them
//     one by one, keeping the run with the largest range among overlapping
//     candidates and deleting the rest (they were already merged);
//  4. recompute maxCovered / IndexedPSN from the post-groomed runs in case
//     the crash hit between an evolve step and the meta write, and finish
//     any interrupted GC.
//
// Runs in non-persisted levels are lost by definition; their persisted
// ancestors are on shared storage and resurface through step 3, so no run
// is ever rebuilt from data blocks (level 0 is always persisted, §6.1).
func (ix *Index) recover() error {
	maxCovered, psn, metaSeq, haveMeta, err := ix.readMeta()
	if err != nil {
		return fmt.Errorf("core: recover meta: %w", err)
	}
	if haveMeta {
		ix.maxCovered.Store(maxCovered)
		ix.indexedPSN.Store(psn)
	}
	ix.metaSeq.Store(metaSeq)

	maxSeq := uint64(0)
	for _, z := range []*zoneList{ix.groomed, ix.post} {
		prefix := fmt.Sprintf("%s/z%d/", ix.cfg.Name, z.zone)
		names, err := ix.store.List(prefix)
		if err != nil {
			return fmt.Errorf("core: recover list %s: %w", prefix, err)
		}
		type cand struct {
			name string
			h    *run.Header
		}
		var cands []cand
		for _, name := range names {
			h, err := run.LoadHeader(ix.store, name)
			if errors.Is(err, run.ErrCorrupt) {
				// Unparseable object: an interrupted write. Clean it up.
				_ = ix.store.Delete(name)
				continue
			}
			if err != nil {
				// A read that failed says nothing about the run; deleting
				// it would lose a valid run.
				return fmt.Errorf("core: recover run %s: %w", name, err)
			}
			cands = append(cands, cand{name: name, h: h})
			if s := runSeqFromName(name); s > maxSeq {
				maxSeq = s
			}
		}
		// Sort by descending end groomed block ID; among equal ends the
		// larger range (the merged superset) wins.
		slices.SortFunc(cands, func(a, b cand) int {
			ba, bb := a.h.Meta.Blocks, b.h.Meta.Blocks
			if c := cmp.Compare(bb.Max, ba.Max); c != 0 {
				return c
			}
			return cmp.Compare(bb.Len(), ba.Len())
		})
		var kept []cand
		for _, c := range cands {
			overlaps := false
			for _, k := range kept {
				if c.h.Meta.Blocks.Overlaps(k.h.Meta.Blocks) {
					overlaps = true
					break
				}
			}
			if overlaps {
				// Already merged into a kept superset run.
				_ = ix.store.Delete(c.name)
				continue
			}
			kept = append(kept, c)
		}
		// kept is ordered newest-first; rebuild the chain back to front so
		// each node's next pointer is final before it becomes reachable.
		var next *runRef
		for i := len(kept) - 1; i >= 0; i-- {
			ref := ix.newRunRef(kept[i].name, kept[i].h, nil)
			ref.next.Store(next)
			if ix.cache != nil {
				ref.purged.Store(true) // cold cache after restart
			}
			next = ref
		}
		z.head.Store(next)
	}
	ix.runSeq.Store(maxSeq)

	// A crash between evolve steps can leave the meta record behind the
	// post-groomed list; the list is authoritative.
	postRefs, release := ix.post.snapshot()
	for _, ref := range postRefs {
		if ref.blocks().Max > ix.maxCovered.Load() {
			ix.maxCovered.Store(ref.blocks().Max)
		}
		if p := uint64(ref.header.Meta.PSN); p > ix.indexedPSN.Load() {
			ix.indexedPSN.Store(p)
		}
	}
	release()

	// Finish any GC the crash interrupted (evolve step 3).
	ix.gcCoveredGroomedRuns()
	return nil
}

// runSeqFromName extracts the creation sequence from a run object name
// (".../run-<seq>-L...") so freshly minted names never collide with
// recovered ones. Returns 0 when the name doesn't match.
func runSeqFromName(name string) uint64 {
	i := strings.LastIndex(name, "/run-")
	if i < 0 {
		return 0
	}
	rest := name[i+len("/run-"):]
	j := strings.IndexByte(rest, '-')
	if j < 0 {
		return 0
	}
	var seq uint64
	if _, err := fmt.Sscanf(rest[:j], "%d", &seq); err != nil {
		return 0
	}
	return seq
}

// VerifyInvariants checks structural invariants of the index; tests call
// it after maintenance storms and recovery. It is not part of the public
// API surface beyond testing.
func (ix *Index) VerifyInvariants() error {
	for _, z := range []*zoneList{ix.groomed, ix.post} {
		refs, release := z.snapshot()
		prevLevel := -1
		var prevBlocks *types.BlockRange
		for _, r := range refs {
			lvl := r.level()
			if lvl < z.baseLevel || lvl >= z.baseLevel+z.levels {
				release()
				return fmt.Errorf("core: run at level %d outside zone %v", lvl, z.zone)
			}
			if lvl < prevLevel {
				release()
				return fmt.Errorf("core: list not level-ordered in zone %v", z.zone)
			}
			prevLevel = lvl
			b := r.blocks()
			if prevBlocks != nil && b.Overlaps(*prevBlocks) {
				release()
				return fmt.Errorf("core: overlapping runs %v and %v in zone %v", *prevBlocks, b, z.zone)
			}
			if prevBlocks != nil && b.Max > prevBlocks.Min {
				release()
				return fmt.Errorf("core: list not recency-ordered in zone %v (%v after %v)", z.zone, b, *prevBlocks)
			}
			prevBlocks = &b
		}
		release()
	}
	return nil
}
