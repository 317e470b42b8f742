package core

import (
	"bytes"
	"container/heap"
	"fmt"
	"sort"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
)

// Method selects the multi-run reconciliation strategy of §7.1.2.
type Method int

const (
	// MethodAuto picks the set approach for point-like scans and the
	// priority-queue approach otherwise.
	MethodAuto Method = iota
	// MethodSet searches runs newest to oldest remembering returned keys.
	// Intermediate results stay in memory; best for small ranges.
	MethodSet
	// MethodPQ merges all run streams through a priority queue, retaining
	// a global key order without remembering intermediate results.
	MethodPQ
)

// ScanOptions describes a range scan (§7.1). A query specifies values for
// all equality columns and bounds for a prefix of the sort columns, plus
// the snapshot timestamp: only the newest version with beginTS <= TS of
// each matching key is returned.
type ScanOptions struct {
	Equality []keyenc.Value
	// SortLo and SortHi are inclusive bounds on a prefix of the sort
	// columns; nil means unbounded on that side.
	SortLo, SortHi []keyenc.Value
	// TS is the query timestamp. Pass types.MaxTS to see the newest
	// version of everything; a zero TS sees nothing (no version has
	// beginTS <= 0).
	TS     types.TS
	Method Method
	// Limit stops the scan after this many results; 0 means unlimited.
	Limit int
}

// RangeScan executes a range scan and returns the newest visible version
// of every matching key. With MethodPQ (and MethodAuto for ranges) results
// are in global key order; MethodSet returns them grouped by run. Returned
// entries reference immutable run memory and remain valid indefinitely.
func (ix *Index) RangeScan(opts ScanOptions) ([]run.Entry, error) {
	if ix.closed.Load() {
		return nil, fmt.Errorf("core: index closed")
	}
	ts := opts.TS
	lo, err := run.MakeSearchKey(ix.rdef, opts.Equality, opts.SortLo)
	if err != nil {
		return nil, err
	}
	group, err := run.MakeSearchKey(ix.rdef, opts.Equality, nil)
	if err != nil {
		return nil, err
	}
	var upper []byte
	if opts.SortHi != nil {
		hi, err := run.MakeSearchKey(ix.rdef, opts.Equality, opts.SortHi)
		if err != nil {
			return nil, err
		}
		upper = hi.Key
	}

	refs, release := ix.collectCandidates(opts.Equality, opts.SortLo, opts.SortHi)
	defer release()
	ix.stats.Queries.Add(1)

	method := opts.Method
	if method == MethodAuto {
		// Point-like scans (sort columns pinned to a single value)
		// reconcile cheaply via the set approach; real ranges use the
		// priority queue, which also yields global key order (§7.1.2:
		// "the set approach mainly works well for small range queries").
		method = MethodPQ
		if len(opts.SortLo) == len(ix.rdef.SortKinds) && len(opts.SortHi) == len(opts.SortLo) {
			pinned := true
			for i := range opts.SortLo {
				if keyenc.Compare(opts.SortLo[i], opts.SortHi[i]) != 0 {
					pinned = false
					break
				}
			}
			if pinned {
				method = MethodSet
			}
		}
	}
	switch method {
	case MethodSet:
		return ix.scanSet(refs, lo, group, upper, ts, opts.Limit)
	default:
		return ix.scanPQ(refs, lo, group, upper, ts, opts.Limit)
	}
}

// collectCandidates snapshots the run lists in query order — groomed runs
// (newest first) that are not covered, then post-groomed runs — and prunes
// by synopsis. The returned release function must be called when the query
// is done with the entries.
func (ix *Index) collectCandidates(eq []keyenc.Value, sortLo, sortHi []keyenc.Value) ([]*runRef, func()) {
	// Order matters for consistency (§5.4): load the covered boundary
	// BEFORE snapshotting the lists. If we observe boundary B, the post
	// run that raised it is already in the post list we snapshot later,
	// so no groomed run skipped via B can carry data the query misses.
	covered := ix.maxCovered.Load()
	groomedRefs, releaseG := ix.groomed.snapshot()
	postRefs, releaseP := ix.post.snapshot()

	bounds := ix.synopsisBounds(eq, sortLo, sortHi)

	var out []*runRef
	for _, r := range groomedRefs {
		if r.blocks().Max <= covered {
			ix.stats.RunsCovered.Add(1)
			continue
		}
		if bounds != nil && !run.HeaderMayContain(r.header, bounds) {
			ix.stats.RunsPruned.Add(1)
			continue
		}
		out = append(out, r)
	}
	for _, r := range postRefs {
		if bounds != nil && !run.HeaderMayContain(r.header, bounds) {
			ix.stats.RunsPruned.Add(1)
			continue
		}
		out = append(out, r)
	}
	return out, func() { releaseG(); releaseP() }
}

// synopsisBounds builds per-key-column bounds for run pruning. Equality
// columns pin Lo == Hi; sort-column bounds apply hierarchically: column i
// is constrained only while all previous sort columns are pinned equal.
func (ix *Index) synopsisBounds(eq []keyenc.Value, sortLo, sortHi []keyenc.Value) []run.ColumnBound {
	if ix.cfg.DisableSynopsis {
		return nil
	}
	bounds := make([]run.ColumnBound, 0, len(eq)+len(ix.rdef.SortKinds))
	for _, v := range eq {
		enc := keyenc.Append(nil, v)
		bounds = append(bounds, run.ColumnBound{Lo: enc, Hi: enc})
	}
	for i := 0; i < len(ix.rdef.SortKinds); i++ {
		var b run.ColumnBound
		if i < len(sortLo) {
			b.Lo = keyenc.Append(nil, sortLo[i])
		}
		if i < len(sortHi) {
			b.Hi = keyenc.Append(nil, sortHi[i])
		}
		bounds = append(bounds, b)
		// Deeper sort columns are only independently constrained when
		// this one is pinned to a single value.
		pinned := i < len(sortLo) && i < len(sortHi) && bytes.Equal(b.Lo, b.Hi)
		if !pinned {
			break
		}
	}
	return bounds
}

// inUpperBound reports whether the entry is still within the inclusive
// upper bound. A key extending the bound (bound is a strict prefix) is
// inside it: the bound constrains only the leading sort columns.
func inUpperBound(key, upper []byte) bool {
	if upper == nil {
		return true
	}
	n := len(key)
	if len(upper) < n {
		n = len(upper)
	}
	if c := bytes.Compare(key[:n], upper[:n]); c != 0 {
		return c < 0
	}
	return true // equal prefix: inside regardless of which is longer
}

// searchRun implements the single-run range search of §7.1.1: binary
// search (narrowed by the offset array) to the first matching key, then
// forward iteration within the equality group and upper bound, filtering
// on beginTS and keeping only the newest visible version per key. emit
// returns false to stop early.
func (ix *Index) searchRun(ref *runRef, lo, group run.SearchKey, upper []byte, ts types.TS, emit func(run.Entry) bool) error {
	ix.stats.RunsSearched.Add(1)
	src := ix.source(ref)
	defer func() {
		if ts, ok := src.(*tieredSource); ok {
			ts.Close()
		}
	}()
	r := run.NewReader(ref.header, src)
	it, err := r.SeekGE(lo)
	if err != nil {
		return err
	}
	defer it.Close()

	var curKey []byte
	var curHash uint64
	emittedCur := false
	for ; it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			return err
		}
		ix.stats.EntriesScanned.Add(1)
		if !run.HasPrefix(e, group) {
			break // left the equality group
		}
		if !inUpperBound(e.Key, upper) {
			break
		}
		if curKey == nil || e.Hash != curHash || !bytes.Equal(e.Key, curKey) {
			curKey = e.Key
			curHash = e.Hash
			emittedCur = false
		}
		if emittedCur || e.BeginTS > ts {
			continue // older version of an emitted key, or not yet visible
		}
		emittedCur = true
		if !emit(e) {
			return nil
		}
	}
	return it.Err()
}

// scanSet reconciles with the set approach (§7.1.2): runs are searched
// newest to oldest and a set of already-returned keys suppresses older
// versions from older runs.
func (ix *Index) scanSet(refs []*runRef, lo, group run.SearchKey, upper []byte, ts types.TS, limit int) ([]run.Entry, error) {
	seen := make(map[string]struct{})
	var out []run.Entry
	for _, ref := range refs {
		if limit > 0 && len(out) >= limit {
			break
		}
		err := ix.searchRun(ref, lo, group, upper, ts, func(e run.Entry) bool {
			k := string(e.Key)
			if _, dup := seen[k]; dup {
				return true
			}
			seen[k] = struct{}{}
			out = append(out, e)
			return !(limit > 0 && len(out) >= limit)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scanPQ reconciles with the priority-queue approach (§7.1.2): all run
// streams merge through a heap that orders by key and then by descending
// beginTS and run recency, so the first entry popped for each key is the
// newest visible version and later duplicates are discarded on the fly.
func (ix *Index) scanPQ(refs []*runRef, lo, group run.SearchKey, upper []byte, ts types.TS, limit int) ([]run.Entry, error) {
	var streams []*scanStream
	defer func() {
		for _, s := range streams {
			s.close()
		}
	}()
	h := make(scanHeap, 0, len(refs))
	for pri, ref := range refs {
		s := &scanStream{ix: ix, group: group, upper: upper, ts: ts, pri: pri}
		streams = append(streams, s)
		if err := s.open(ref, lo); err != nil {
			return nil, err
		}
		if s.valid {
			h = append(h, s)
		}
	}
	heap.Init(&h)

	var out []run.Entry
	var lastKey []byte
	var lastHash uint64
	have := false
	for h.Len() > 0 {
		s := h[0]
		e := s.cur
		if !have || e.Hash != lastHash || !bytes.Equal(e.Key, lastKey) {
			out = append(out, e)
			lastKey, lastHash, have = e.Key, e.Hash, true
			if limit > 0 && len(out) >= limit {
				return out, nil
			}
		}
		if err := s.advance(); err != nil {
			return nil, err
		}
		if s.valid {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out, nil
}

// scanStream adapts searchRun's filtering into a pull-based stream for the
// priority-queue reconciliation.
type scanStream struct {
	ix    *Index
	src   run.BlockSource
	it    *run.Iter
	group run.SearchKey
	upper []byte
	ts    types.TS
	pri   int

	cur     run.Entry
	valid   bool
	curKey  []byte
	curHash uint64
	emitted bool
}

func (s *scanStream) open(ref *runRef, lo run.SearchKey) error {
	s.ix.stats.RunsSearched.Add(1)
	s.src = s.ix.source(ref)
	r := run.NewReader(ref.header, s.src)
	it, err := r.SeekGE(lo)
	if err != nil {
		return err
	}
	s.it = it
	return s.advance()
}

// advance moves to the next entry that passes the group/bound/timestamp/
// version filters.
func (s *scanStream) advance() error {
	for ; s.it.Valid(); s.it.Next() {
		e, err := s.it.Entry()
		if err != nil {
			return err
		}
		s.ix.stats.EntriesScanned.Add(1)
		if !run.HasPrefix(e, s.group) || !inUpperBound(e.Key, s.upper) {
			break
		}
		if s.curKey == nil || e.Hash != s.curHash || !bytes.Equal(e.Key, s.curKey) {
			s.curKey, s.curHash, s.emitted = e.Key, e.Hash, false
		}
		if s.emitted || e.BeginTS > s.ts {
			continue
		}
		s.emitted = true
		s.cur = e
		s.it.Next()
		s.valid = true
		return nil
	}
	s.valid = false
	return s.it.Err()
}

func (s *scanStream) close() {
	if s.it != nil {
		s.it.Close()
	}
	if ts, ok := s.src.(*tieredSource); ok {
		ts.Close()
	}
}

type scanHeap []*scanStream

func (h scanHeap) Len() int { return len(h) }
func (h scanHeap) Less(i, j int) bool {
	if c := run.Compare(h[i].cur, h[j].cur); c != 0 {
		return c < 0
	}
	return h[i].pri < h[j].pri
}
func (h scanHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x interface{}) { *h = append(*h, x.(*scanStream)) }
func (h *scanHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// PointLookup finds the newest version with beginTS <= ts of the exact
// key (all equality and all sort columns specified). It searches runs
// newest to oldest and stops at the first hit (§7.2), which is correct
// because run block ranges are disjoint within a zone and beginTS grows
// with groomed block ID.
func (ix *Index) PointLookup(eq, sortv []keyenc.Value, ts types.TS) (run.Entry, bool, error) {
	if ix.closed.Load() {
		return run.Entry{}, false, fmt.Errorf("core: index closed")
	}
	if len(sortv) != len(ix.rdef.SortKinds) {
		return run.Entry{}, false, fmt.Errorf("core: point lookup requires the full key (%d sort values, want %d)", len(sortv), len(ix.rdef.SortKinds))
	}
	key, err := run.MakeSearchKey(ix.rdef, eq, sortv)
	if err != nil {
		return run.Entry{}, false, err
	}
	refs, release := ix.collectCandidates(eq, sortv, sortv)
	defer release()
	ix.stats.Queries.Add(1)

	for _, ref := range refs {
		e, found, err := ix.lookupInRun(ref, key, ts)
		if err != nil {
			return run.Entry{}, false, err
		}
		if found {
			return e, true, nil
		}
	}
	return run.Entry{}, false, nil
}

// lookupInRun finds the newest visible version of an exact key inside one
// run: the point lookup is a range scan whose lower and upper bounds
// coincide (§7.2).
func (ix *Index) lookupInRun(ref *runRef, key run.SearchKey, ts types.TS) (run.Entry, bool, error) {
	ix.stats.RunsSearched.Add(1)
	src := ix.source(ref)
	defer func() {
		if t, ok := src.(*tieredSource); ok {
			t.Close()
		}
	}()
	r := run.NewReader(ref.header, src)
	it, err := r.SeekGE(key)
	if err != nil {
		return run.Entry{}, false, err
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		e, err := it.Entry()
		if err != nil {
			return run.Entry{}, false, err
		}
		ix.stats.EntriesScanned.Add(1)
		if e.Hash != key.Hash || !bytes.Equal(e.Key, key.Key) {
			break // moved past the key
		}
		if e.BeginTS <= ts {
			return e, true, nil
		}
	}
	return run.Entry{}, false, it.Err()
}

// PointLookupPostGroomed is PointLookup restricted to the post-groomed
// run list. The post-groomer uses it to collect the RIDs of the
// already-post-groomed records that the new records replace (§2.1): only
// post-groomed RIDs are permanent, so prevRID chains must point there.
func (ix *Index) PointLookupPostGroomed(eq, sortv []keyenc.Value, ts types.TS) (run.Entry, bool, error) {
	if ix.closed.Load() {
		return run.Entry{}, false, fmt.Errorf("core: index closed")
	}
	if len(sortv) != len(ix.rdef.SortKinds) {
		return run.Entry{}, false, fmt.Errorf("core: point lookup requires the full key")
	}
	key, err := run.MakeSearchKey(ix.rdef, eq, sortv)
	if err != nil {
		return run.Entry{}, false, err
	}
	refs, release := ix.post.snapshot()
	defer release()
	ix.stats.Queries.Add(1)
	bounds := ix.synopsisBounds(eq, sortv, sortv)
	for _, ref := range refs {
		if bounds != nil && !run.HeaderMayContain(ref.header, bounds) {
			ix.stats.RunsPruned.Add(1)
			continue
		}
		e, found, err := ix.lookupInRun(ref, key, ts)
		if err != nil {
			return run.Entry{}, false, err
		}
		if found {
			return e, true, nil
		}
	}
	return run.Entry{}, false, nil
}

// LookupKey is one key of a batched point lookup.
type LookupKey struct {
	Equality []keyenc.Value
	Sort     []keyenc.Value
}

// LookupBatch resolves a batch of point lookups at one timestamp. Keys are
// first sorted by their index order so every run is searched sequentially
// and at most once, newest to oldest, until all keys are found or the runs
// are exhausted (§7.2). Results align with the input: found[i] reports
// whether keys[i] matched and out[i] holds its newest visible version.
func (ix *Index) LookupBatch(keys []LookupKey, ts types.TS) ([]run.Entry, []bool, error) {
	if ix.closed.Load() {
		return nil, nil, fmt.Errorf("core: index closed")
	}
	out := make([]run.Entry, len(keys))
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return out, found, nil
	}

	type item struct {
		key run.SearchKey
		pos int
	}
	nKeyCols := len(ix.rdef.EqualityKinds) + len(ix.rdef.SortKinds)
	items := make([]item, len(keys))
	// batchBounds accumulates the per-column min/max over the whole
	// batch, pruning runs that overlap none of the batch's keys.
	batchBounds := make([]run.ColumnBound, nKeyCols)
	for i, k := range keys {
		if len(k.Sort) != len(ix.rdef.SortKinds) {
			return nil, nil, fmt.Errorf("core: batch key %d: point lookup requires the full key", i)
		}
		sk, err := run.MakeSearchKey(ix.rdef, k.Equality, k.Sort)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch key %d: %w", i, err)
		}
		segs := make([][]byte, 0, nKeyCols)
		for _, v := range k.Equality {
			segs = append(segs, keyenc.Append(nil, v))
		}
		for _, v := range k.Sort {
			segs = append(segs, keyenc.Append(nil, v))
		}
		for c, seg := range segs {
			if batchBounds[c].Lo == nil || bytes.Compare(seg, batchBounds[c].Lo) < 0 {
				batchBounds[c].Lo = seg
			}
			if batchBounds[c].Hi == nil || bytes.Compare(seg, batchBounds[c].Hi) > 0 {
				batchBounds[c].Hi = seg
			}
		}
		items[i] = item{key: sk, pos: i}
	}
	// Sort the batch by hash, equality and sort columns (§7.2) so each
	// run is read in one forward pass.
	sort.Slice(items, func(i, j int) bool {
		if items[i].key.Hash != items[j].key.Hash {
			return items[i].key.Hash < items[j].key.Hash
		}
		return bytes.Compare(items[i].key.Key, items[j].key.Key) < 0
	})

	refs, release := ix.collectCandidates(nil, nil, nil)
	defer release()
	ix.stats.Queries.Add(1)

	remaining := len(items)
	for _, ref := range refs {
		if remaining == 0 {
			break
		}
		if !ix.cfg.DisableSynopsis && !run.HeaderMayContain(ref.header, batchBounds) {
			ix.stats.RunsPruned.Add(1)
			continue
		}
		err := func() error {
			ix.stats.RunsSearched.Add(1)
			src := ix.source(ref)
			defer func() {
				if t, ok := src.(*tieredSource); ok {
					t.Close()
				}
			}()
			r := run.NewReader(ref.header, src)
			// One iterator per run: since the batch is sorted, successive
			// seeks land in the same or the next data block, and the
			// iterator keeps the block it holds — a single fetch (§8.3.2).
			it := r.Begin()
			defer it.Close()
			for i := range items {
				if found[items[i].pos] {
					continue
				}
				k := items[i].key
				if err := it.SeekGE(k); err != nil {
					return err
				}
				for ; it.Valid(); it.Next() {
					e, err := it.Entry()
					if err != nil {
						return err
					}
					ix.stats.EntriesScanned.Add(1)
					if e.Hash != k.Hash || !bytes.Equal(e.Key, k.Key) {
						break
					}
					if e.BeginTS <= ts {
						out[items[i].pos] = e
						found[items[i].pos] = true
						remaining--
						break
					}
				}
				if err := it.Err(); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return nil, nil, err
		}
	}
	return out, found, nil
}

// DecodeEntry splits an entry back into its column values.
func (ix *Index) DecodeEntry(e run.Entry) (eq, sortv, incl []keyenc.Value, err error) {
	keyVals, _, err := keyenc.DecodeComposite(e.Key, ix.rdef.KeyKinds())
	if err != nil {
		return nil, nil, nil, err
	}
	eq = keyVals[:len(ix.rdef.EqualityKinds)]
	sortv = keyVals[len(ix.rdef.EqualityKinds):]
	if len(ix.rdef.IncludedKinds) > 0 {
		incl, _, err = keyenc.DecodeComposite(e.Included, ix.rdef.IncludedKinds)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return eq, sortv, incl, nil
}
