package core

import (
	"fmt"

	"umzi/internal/run"
	"umzi/internal/types"
)

// Evolve applies the index evolve operation of §5.4 for one post-groom
// operation. entries are the index entries of the newly post-groomed
// blocks (same keys and beginTS as their groomed counterparts, new RIDs in
// the post-groomed zone); blocks is the groomed-block-ID range the
// post-groom consumed.
//
// The operation decomposes into three atomic sub-steps, each leaving the
// index in a valid state for concurrent lock-free queries:
//
//  1. build a run for the post-groomed data and atomically prepend it to
//     the post-groomed run list (it keeps its groomed block range);
//  2. atomically raise the maximum covered groomed block ID — from that
//     instant queries ignore groomed runs whose end ID is covered;
//  3. garbage-collect those fully covered groomed runs.
//
// Between steps the index may contain duplicates (the same key version in
// both zones); queries de-duplicate during reconciliation, so duplicates
// are benign (§5.4).
//
// Evolve operations must arrive in PSN order: psn == IndexedPSN()+1.
func (ix *Index) Evolve(psn types.PSN, entries []run.Entry, blocks types.BlockRange) error {
	if ix.closed.Load() {
		return fmt.Errorf("core: index closed")
	}
	if uint64(psn) != ix.indexedPSN.Load()+1 {
		return fmt.Errorf("core: evolve PSN %d out of order (indexed %d)", psn, ix.indexedPSN.Load())
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()

	// Step 1: build and publish the post-groomed run.
	if len(entries) > 0 {
		meta := run.Meta{
			Zone:   types.ZonePostGroomed,
			Level:  uint16(ix.post.baseLevel),
			Blocks: blocks,
			PSN:    psn,
		}
		ref, err := ix.buildAndPersist(entries, meta, true)
		if err != nil {
			return fmt.Errorf("core: evolve step 1: %w", err)
		}
		ix.post.prepend(ref)
		ix.crash("evolve.after-step1")
	}

	// Step 2: raise the covered boundary. Queries loading it afterwards
	// will skip covered groomed runs; the post run from step 1 is already
	// visible to them (sequentially consistent atomics).
	if blocks.Max > ix.maxCovered.Load() {
		ix.maxCovered.Store(blocks.Max)
	}
	ix.indexedPSN.Store(uint64(psn))
	ix.crash("evolve.after-step2")

	// Step 3: GC groomed runs that are now fully covered.
	ix.gcCoveredGroomedRuns()
	ix.stats.Evolves.Add(1)

	// Persist the evolve watermark so recovery resumes from here.
	if err := ix.writeMeta(); err != nil {
		return fmt.Errorf("core: evolve meta: %w", err)
	}
	return nil
}

// BootstrapPostZone initializes a freshly created index's post-groomed
// zone from already-post-groomed data: one run holding the entries of
// every record version currently in the post-groomed zone, covering the
// groomed block IDs [0, coveredMax], with the evolve watermark
// fast-forwarded to psn so subsequent evolve operations continue from
// the engine's published PSN. This is the CREATE INDEX backfill path —
// a new secondary adopts the table's post-groomed history wholesale
// instead of replaying every evolve — and it is only valid on an empty
// index.
func (ix *Index) BootstrapPostZone(psn types.PSN, entries []run.Entry, coveredMax uint64) error {
	if ix.closed.Load() {
		return fmt.Errorf("core: index closed")
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	if ix.groomed.len() != 0 || ix.post.len() != 0 || ix.indexedPSN.Load() != 0 {
		return fmt.Errorf("core: BootstrapPostZone on a non-empty index")
	}
	if len(entries) > 0 {
		meta := run.Meta{
			Zone:   types.ZonePostGroomed,
			Level:  uint16(ix.post.baseLevel),
			Blocks: types.BlockRange{Min: 0, Max: coveredMax},
			PSN:    psn,
		}
		ref, err := ix.buildAndPersist(entries, meta, true)
		if err != nil {
			return fmt.Errorf("core: bootstrap post zone: %w", err)
		}
		ix.post.prepend(ref)
	}
	if coveredMax > ix.maxCovered.Load() {
		ix.maxCovered.Store(coveredMax)
	}
	ix.indexedPSN.Store(uint64(psn))
	if err := ix.writeMeta(); err != nil {
		return fmt.Errorf("core: bootstrap meta: %w", err)
	}
	return nil
}

// RebuildGroomedRun re-creates a lost level-0 groomed run from re-derived
// entries. Engine recovery uses it when a crash hit a groom between
// writing the data block and persisting every index's run (§5.5: no run
// is normally rebuilt from data blocks; this is the exception that heals
// the window). The run is inserted at its recency position rather than
// the head, because later grooms may already have persisted runs. Only
// safe during recovery, before maintenance and queries start.
func (ix *Index) RebuildGroomedRun(entries []run.Entry, blocks types.BlockRange) error {
	if len(entries) == 0 {
		return nil
	}
	meta := run.Meta{Zone: types.ZoneGroomed, Level: 0, Blocks: blocks}
	ref, err := ix.buildAndPersist(entries, meta, true)
	if err != nil {
		return err
	}
	ix.groomed.insertOrdered(ref)
	ix.stats.Builds.Add(1)
	return nil
}

// CoversGroomedBlock reports whether the index holds entries for the
// given groomed block ID — through the evolve watermark (the block's
// versions migrated to the post-groomed zone) or through a groomed run
// whose range contains it. Engine recovery uses it to detect groom
// operations whose data block persisted but whose run build was lost.
func (ix *Index) CoversGroomedBlock(id uint64) bool {
	if id <= ix.maxCovered.Load() {
		return true
	}
	refs, release := ix.groomed.snapshot()
	defer release()
	for _, r := range refs {
		if b := r.blocks(); b.Min <= id && id <= b.Max {
			return true
		}
	}
	return false
}

// gcCoveredGroomedRuns removes groomed runs whose whole block range is
// covered by the post-groomed list. Their storage objects — for a merged
// run, those of its level-0 ancestors — are deleted once in-flight
// readers drain (reference counting).
func (ix *Index) gcCoveredGroomedRuns() {
	covered := ix.maxCovered.Load()
	ix.groomed.mu.Lock()
	for _, ref := range ix.groomed.runsLocked() {
		if ref.blocks().Max <= covered {
			ix.groomed.remove(ref, true)
			ix.stats.RunsGCed.Add(1)
		}
	}
	ix.groomed.mu.Unlock()
}

// crashPoints enables deterministic failure injection in tests: when the
// named point is armed, crash panics with crashError. Production code
// never arms points, so the branch predictor hides the checks.
var crashPoints = map[string]bool{}

type crashError struct{ point string }

func (e crashError) Error() string { return "injected crash at " + e.point }

func (ix *Index) crash(point string) {
	if crashPoints[point] {
		panic(crashError{point})
	}
}
