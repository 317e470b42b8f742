package core

import (
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
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
	TS types.TS
	// Limit stops the scan after this many results; 0 means unlimited.
	Limit int
}

// RangeScan executes a range scan and returns the newest visible version
// of every matching key in key order. The candidate runs merge through
// one priority queue (§7.1.2). Returned entries reference immutable run
// memory and remain valid indefinitely.
func (ix *Index) RangeScan(opts ScanOptions) ([]run.Entry, error) {
	if ix.closed.Load() {
		return nil, fmt.Errorf("core: index closed")
	}
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
	return ix.scanPQ(refs, lo, group, upper, opts.TS, opts.Limit)
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

// scanStream is one run's side of the priority queue: the single-run
// range search of §7.1.1 as a pull-based stream. It seeks (binary search
// narrowed by the offset array) to the first matching key, then iterates
// forward within the equality group and upper bound, filtering on
// beginTS and keeping only the newest visible version per key.
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

// LookupKey is one key of a batched point lookup.
type LookupKey struct {
	Equality []keyenc.Value
	Sort     []keyenc.Value
}

// lookupItem is one exact key of a lookup batch. pos is its slot in the
// caller's results. bounds, when set, pins every key column to the key's
// value, so a run whose synopsis excludes the key is not searched for it.
type lookupItem struct {
	key    run.SearchKey
	bounds []run.ColumnBound
	pos    int
}

// pointKey builds the search key of one exact key (all equality and all
// sort columns specified).
func (ix *Index) pointKey(eq, sortv []keyenc.Value) (run.SearchKey, error) {
	if len(sortv) != len(ix.rdef.SortKinds) {
		return run.SearchKey{}, fmt.Errorf("core: point lookup requires the full key (%d sort values, want %d)", len(sortv), len(ix.rdef.SortKinds))
	}
	return run.MakeSearchKey(ix.rdef, eq, sortv)
}

// PointLookup finds the newest version with beginTS <= ts of the exact
// key (all equality and all sort columns specified). It is a batch of one
// over the runs whose synopsis admits the key.
func (ix *Index) PointLookup(eq, sortv []keyenc.Value, ts types.TS) (run.Entry, bool, error) {
	if ix.closed.Load() {
		return run.Entry{}, false, fmt.Errorf("core: index closed")
	}
	key, err := ix.pointKey(eq, sortv)
	if err != nil {
		return run.Entry{}, false, err
	}
	refs, release := ix.collectCandidates(eq, sortv, sortv)
	defer release()
	// collectCandidates pruned by this key's bounds already.
	return ix.lookupOne(refs, lookupItem{key: key}, ts)
}

// PointLookupPostGroomed is PointLookup restricted to the post-groomed
// run list. The post-groomer uses it to collect the RIDs of the
// already-post-groomed records that the new records replace (§2.1): only
// post-groomed RIDs are permanent, so prevRID chains must point there.
func (ix *Index) PointLookupPostGroomed(eq, sortv []keyenc.Value, ts types.TS) (run.Entry, bool, error) {
	if ix.closed.Load() {
		return run.Entry{}, false, fmt.Errorf("core: index closed")
	}
	key, err := ix.pointKey(eq, sortv)
	if err != nil {
		return run.Entry{}, false, err
	}
	refs, release := ix.post.snapshot()
	defer release()
	return ix.lookupOne(refs, lookupItem{key: key, bounds: ix.synopsisBounds(eq, sortv, sortv)}, ts)
}

// lookupOne is a batch of one, kept on the stack.
func (ix *Index) lookupOne(refs []*runRef, item lookupItem, ts types.TS) (run.Entry, bool, error) {
	items := [1]lookupItem{item}
	var out [1]run.Entry
	var found [1]bool
	err := ix.lookup(refs, items[:], ts, out[:], found[:])
	return out[0], found[0], err
}

// LookupBatch resolves a batch of point lookups at one timestamp. Results
// align with the input: found[i] reports whether keys[i] matched and
// out[i] holds its newest visible version.
func (ix *Index) LookupBatch(keys []LookupKey, ts types.TS) ([]run.Entry, []bool, error) {
	if ix.closed.Load() {
		return nil, nil, fmt.Errorf("core: index closed")
	}
	out := make([]run.Entry, len(keys))
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return out, found, nil
	}
	items := make([]lookupItem, len(keys))
	for i, k := range keys {
		sk, err := ix.pointKey(k.Equality, k.Sort)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch key %d: %w", i, err)
		}
		items[i] = lookupItem{key: sk, bounds: ix.synopsisBounds(k.Equality, k.Sort, k.Sort), pos: i}
	}
	// Sort the batch by hash, equality and sort columns (§7.2) so each
	// run is read in one forward pass.
	slices.SortFunc(items, func(a, b lookupItem) int {
		if c := cmp.Compare(a.key.Hash, b.key.Hash); c != 0 {
			return c
		}
		return bytes.Compare(a.key.Key, b.key.Key)
	})
	refs, release := ix.collectCandidates(nil, nil, nil)
	defer release()
	if err := ix.lookup(refs, items, ts, out, found); err != nil {
		return nil, nil, err
	}
	return out, found, nil
}

// lookup resolves items, sorted by hash and key, against refs in query
// order (§7.2): runs newest to oldest, until every key is found or the
// runs are exhausted. Taking the first visible version is correct because
// run block ranges are disjoint within a zone and beginTS grows with
// groomed block ID. A key is sought in a run only while it is unfound and
// the run's synopsis admits it; a run in which no key is sought counts as
// pruned.
func (ix *Index) lookup(refs []*runRef, items []lookupItem, ts types.TS, out []run.Entry, found []bool) error {
	ix.stats.Queries.Add(1)
	remaining := len(items)
	for _, ref := range refs {
		if remaining == 0 {
			return nil
		}
		err := func() error {
			var src run.BlockSource
			var it *run.Iter
			defer func() {
				if it != nil {
					it.Close()
					if t, ok := src.(*tieredSource); ok {
						t.Close()
					}
				}
			}()
			for i := range items {
				k := &items[i]
				if found[k.pos] || (k.bounds != nil && !run.HeaderMayContain(ref.header, k.bounds)) {
					continue
				}
				if it == nil {
					ix.stats.RunsSearched.Add(1)
					// One iterator per run: the batch is sorted, so
					// successive seeks land in the same or a later data
					// block, and the iterator keeps the block it holds —
					// a single fetch (§8.3.2).
					src = ix.source(ref)
					it = run.NewReader(ref.header, src).Begin()
				}
				if err := it.SeekGE(k.key); err != nil {
					return err
				}
				for ; it.Valid(); it.Next() {
					e, err := it.Entry()
					if err != nil {
						return err
					}
					ix.stats.EntriesScanned.Add(1)
					if e.Hash != k.key.Hash || !bytes.Equal(e.Key, k.key.Key) {
						break
					}
					if e.BeginTS <= ts {
						out[k.pos], found[k.pos] = e, true
						remaining--
						break
					}
				}
				if err := it.Err(); err != nil {
					return err
				}
			}
			if it == nil {
				ix.stats.RunsPruned.Add(1)
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
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
