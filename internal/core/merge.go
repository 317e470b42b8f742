package core

import (
	"container/heap"
	"fmt"

	"umzi/internal/run"
	"umzi/internal/types"
)

// Merge policy (§5.3): Umzi uses a hybrid of tiering and leveling
// controlled by K (maximum inactive runs per level) and T (size ratio).
// Each level keeps its first run as the active run; incoming runs from
// level L-1 always merge into the active run of level L. When the active
// run grows to T times an incoming inactive run it is sealed (marked
// inactive) and the next merge starts a fresh active run. When a level
// accumulates K inactive runs they merge together with the next level's
// active run.
//
// Level 0 holds only inactive runs (index builds arrive sealed). The top
// level of a zone never seals its active run; merges there fold the
// level's inactive runs into it.

// MaintainOnce makes one merge attempt per level of each zone, bottom
// level first, and returns whether any merged. The table's index
// maintainer calls it once per tick; tests and benchmarks drive
// maintenance deterministically with it.
func (ix *Index) MaintainOnce() (bool, error) {
	worked := false
	for _, z := range []*zoneList{ix.groomed, ix.post} {
		for local := 0; local < z.levels; local++ {
			did, err := ix.mergeLevel(z, local)
			if err != nil {
				return worked, err
			}
			worked = worked || did
		}
	}
	return worked, nil
}

// Quiesce runs maintenance until no merge is pending. Useful in tests and
// at the end of ingest phases.
func (ix *Index) Quiesce() error {
	for {
		did, err := ix.MaintainOnce()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}

// mergePlan captures the inputs of one merge decision.
type mergePlan struct {
	seg         []*runRef // contiguous list segment: K inactive at L, then active at L+1 (if any)
	targetLocal int       // local level of the output run
	sealAfter   bool      // whether the output seals immediately
	avgInput    uint64    // average size of the level-L inputs (seal test)
}

// planMergeLocked inspects level `local` of zone z and returns a plan if
// its inactive runs are due to merge. Callers hold z.mu.
func (ix *Index) planMergeLocked(z *zoneList, local int) *mergePlan {
	runs := z.runsLocked()

	// Collect the level's runs in list order (newest first).
	var levelRuns []*runRef
	for _, r := range runs {
		if r.level() == z.baseLevel+local {
			levelRuns = append(levelRuns, r)
		}
	}
	var inactive []*runRef
	for _, r := range levelRuns {
		if !r.active {
			inactive = append(inactive, r)
		}
	}
	if len(inactive) < ix.cfg.K {
		return nil
	}

	var total uint64
	for _, r := range inactive {
		total += r.entries()
	}
	avgInput := total / uint64(len(inactive))

	if top := local == z.levels-1; top {
		// Top level: compact the whole level section (it is contiguous in
		// the list; the active run, if any, leads it) into a single run at
		// the same level. There is no higher level to push into.
		if len(levelRuns) < 2 {
			return nil
		}
		return &mergePlan{
			seg:         append([]*runRef(nil), levelRuns...),
			targetLocal: local,
			avgInput:    avgInput,
		}
	}

	targetLocal := local + 1

	// Merge the K *oldest* inactive runs: they form the tail of this
	// level's list section, adjacent to the next level's section head.
	seg := append([]*runRef(nil), inactive[len(inactive)-ix.cfg.K:]...)

	// The next level's active run joins the merge. Within a level section
	// the active run, when present, is always the first (newest) run.
	for _, r := range runs {
		if r.level() == z.baseLevel+targetLocal {
			if r.active {
				seg = append(seg, r)
			}
			break
		}
	}
	return &mergePlan{
		seg:         seg,
		targetLocal: targetLocal,
		avgInput:    avgInput,
	}
}

// mergeLevel executes one merge for the given zone level if due.
func (ix *Index) mergeLevel(z *zoneList, local int) (bool, error) {
	if ix.closed.Load() {
		return false, nil
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()

	z.mu.Lock()
	plan := ix.planMergeLocked(z, local)
	if plan == nil {
		z.mu.Unlock()
		return false, nil
	}
	// Hold references to the inputs across the unlocked merge phase.
	for _, r := range plan.seg {
		if !r.acquire() {
			z.mu.Unlock()
			return false, fmt.Errorf("core: merge input died during planning")
		}
	}
	z.mu.Unlock()

	ref, err := ix.executeMerge(z, plan)
	for _, r := range plan.seg {
		r.release()
	}
	if err != nil {
		return false, err
	}

	// Splice under the short list lock (Figure 4). The inputs' objects are
	// deletable only if the output is persisted; otherwise the persisted
	// inputs become the output's ancestors and must survive a crash
	// (§6.1) — evolve deletes them with the output.
	z.mu.Lock()
	z.replaceSegment(plan.seg, ref, ix.isPersistedLevel(z.baseLevel+plan.targetLocal))
	// Seal check: the new active run is full once it reaches T times an
	// incoming run's size.
	ref.active = !plan.sealAfter
	z.mu.Unlock()

	ix.stats.Merges.Add(1)
	return true, nil
}

// executeMerge performs the I/O of a merge outside any list lock: k-way
// merge the input runs into a new run at the target level.
func (ix *Index) executeMerge(z *zoneList, plan *mergePlan) (*runRef, error) {
	targetGlobal := z.baseLevel + plan.targetLocal

	blocks := plan.seg[0].blocks()
	var psn types.PSN
	for _, r := range plan.seg {
		blocks = blocks.Union(r.blocks())
		if p := r.header.Meta.PSN; p > psn {
			psn = p
		}
	}
	persisted := ix.isPersistedLevel(targetGlobal)
	var ancestors []*runRef
	if !persisted {
		// The persisted inputs (or their ancestors) outlive this merge:
		// they are what recovery finds after a crash (§6.1).
		for _, r := range plan.seg {
			if r.persisted() {
				ancestors = append(ancestors, r)
			} else {
				ancestors = append(ancestors, r.ancestors...)
			}
		}
	}
	names := make([]string, len(ancestors))
	for i, a := range ancestors {
		names[i] = a.name
	}

	meta := run.Meta{
		Zone:      z.zone,
		Level:     uint16(targetGlobal),
		Blocks:    blocks,
		PSN:       psn,
		Ancestors: names,
	}
	b, err := run.NewBuilder(ix.rdef, meta, ix.cfg.BlockSize)
	if err != nil {
		return nil, err
	}

	if err := ix.mergeInto(b, plan.seg); err != nil {
		return nil, err
	}

	ref, err := ix.finishBuilder(b, meta, persisted)
	if err != nil {
		return nil, err
	}
	// The output takes over its non-persisted inputs' ancestor references
	// and takes one of its own on each persisted input.
	for _, r := range plan.seg {
		if !persisted && r.persisted() {
			r.acquire()
		}
	}
	ref.ancestors = ancestors
	// Seal decision (§5.3): the merged active run is full when its size
	// reaches T times an incoming inactive run; top-level actives never
	// seal.
	if plan.targetLocal < z.levels-1 && plan.avgInput > 0 &&
		ref.entries() >= uint64(ix.cfg.T)*plan.avgInput {
		plan.sealAfter = true
	}
	return ref, nil
}

// mergeInto streams the entries of the input runs (newest first) into the
// builder in sorted order, dropping exact duplicates — entries with the
// same key and beginTS — that arise from evolve's benign overlap (§5.4).
// Distinct versions are all retained: Umzi is a multi-version index.
func (ix *Index) mergeInto(b *run.Builder, seg []*runRef) error {
	h := make(mergeHeap, 0, len(seg))
	for pri, ref := range seg {
		src := ix.source(ref)
		it := run.NewReader(ref.header, src).Begin()
		if !it.Valid() {
			continue
		}
		e, err := it.Entry()
		if err != nil {
			return err
		}
		h = append(h, &mergeStream{it: it, cur: e, pri: pri})
	}
	heap.Init(&h)

	var last run.Entry
	var haveLast bool
	for h.Len() > 0 {
		s := h[0]
		e := s.cur
		if !haveLast || run.Compare(last, e) != 0 {
			// Entries reference block memory owned by the source run;
			// copy so the output builder outlives the inputs.
			b.Add(cloneEntry(e))
			last = e
			haveLast = true
		}
		s.it.Next()
		if s.it.Valid() {
			ne, err := s.it.Entry()
			if err != nil {
				return err
			}
			s.cur = ne
			heap.Fix(&h, 0)
		} else {
			if err := s.it.Err(); err != nil {
				return err
			}
			s.it.Close()
			heap.Pop(&h)
		}
	}
	return nil
}

func cloneEntry(e run.Entry) run.Entry {
	out := e
	out.Key = append([]byte(nil), e.Key...)
	if len(e.Included) > 0 {
		out.Included = append([]byte(nil), e.Included...)
	}
	return out
}

// isPersistedLevel reports whether runs at the global level are persisted
// to shared storage (§6.1): level 0 and the whole post-groomed zone are;
// merge outputs inside the groomed zone never are — evolve discards them
// within a post-groom interval, and their level-0 ancestors stay on
// shared storage until then, so recovery re-merges instead.
func (ix *Index) isPersistedLevel(global int) bool {
	return global == 0 || global >= ix.cfg.GroomedLevels
}

// mergeStream is one input run's cursor in the k-way merge.
type mergeStream struct {
	it  *run.Iter
	cur run.Entry
	pri int // recency priority: lower = newer run, wins ties
}

type mergeHeap []*mergeStream

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if c := run.Compare(h[i].cur, h[j].cur); c != 0 {
		return c < 0
	}
	return h[i].pri < h[j].pri
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeStream)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
