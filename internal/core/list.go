package core

import (
	"sync"
	"sync/atomic"

	"umzi/internal/run"
	"umzi/internal/types"
)

// runRef is one node of a zone's run list. The list is singly linked
// through atomic pointers, newest run first, and is the concurrency-control
// backbone of §5.1: queries traverse it without locks, every maintenance
// splice leaves the list in a valid state, and nodes removed from the list
// keep their next pointer intact so in-flight readers standing on them can
// continue.
//
// Lifetime is reference counted: the list holds one reference, every query
// snapshot holds one per run it visits. When the count drains to zero and
// the run was marked obsolete, its storage object (and cached blocks) are
// deleted — this is how "eventually deleted" (§5.4) is realized without
// ever blocking a reader.
type runRef struct {
	ix     *Index
	seq    uint64      // unique creation sequence (naming, debugging)
	name   string      // storage object name; "" for non-persisted runs
	header *run.Header // always resident
	mem    []byte      // whole object bytes for non-persisted runs
	// ancestors are the persisted runs a non-persisted run was merged
	// from (§6.1). It holds a reference to each, so a query still reading
	// one keeps its object alive; the references move to the run that
	// replaces this one in a merge, or are dropped — deleting the objects
	// — once evolve has retired this run and its readers have drained.
	ancestors []*runRef

	next atomic.Pointer[runRef]

	// refs counts list + reader references. 0 means dead.
	refs atomic.Int32
	// obsolete marks the run's object for deletion once refs drains.
	obsolete atomic.Bool
	// purged tracks whether the cache manager dropped this run's data
	// blocks from the SSD cache (§6.2).
	purged atomic.Bool
	// active is the merge-policy flag of §5.3 (guarded by the zone mutex).
	active bool
}

// entries returns the run's size metric for the merge policy.
func (r *runRef) entries() uint64 { return r.header.Entries }

// level returns the run's global level.
func (r *runRef) level() int { return int(r.header.Meta.Level) }

// blocks returns the groomed-block range the run covers.
func (r *runRef) blocks() types.BlockRange { return r.header.Meta.Blocks }

// persisted reports whether the run has a shared-storage object.
func (r *runRef) persisted() bool { return r.name != "" }

// acquire takes a reference if the node is still alive.
func (r *runRef) acquire() bool {
	for {
		v := r.refs.Load()
		if v <= 0 {
			return false
		}
		if r.refs.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// release drops a reference, reclaiming the run when it was the last one.
func (r *runRef) release() {
	if r.refs.Add(-1) != 0 {
		return
	}
	if r.obsolete.Load() {
		// Readers have drained: the object really goes away now.
		if r.persisted() {
			_ = r.ix.store.Delete(r.name)
			if r.ix.cache != nil {
				r.ix.cache.DropObject(r.name)
			}
		}
		for _, a := range r.ancestors {
			a.obsolete.Store(true)
			a.release()
		}
	}
	r.mem = nil
}

// zoneList is the per-zone run list plus its maintenance lock.
type zoneList struct {
	zone      types.ZoneID
	baseLevel int // global level of this zone's first level
	levels    int // number of levels assigned to the zone

	head atomic.Pointer[runRef]
	// mu serializes list modifications (§5.1: "a short duration lock is
	// acquired when modifying the run list"); queries never take it.
	mu sync.Mutex
}

// prepend publishes a new run at the head of the list. Per §5.2 the new
// run points at the old header before the head pointer moves, so a
// concurrent reader sees either the old list or the new one — never a
// broken chain.
func (z *zoneList) prepend(ref *runRef) {
	z.mu.Lock()
	ref.next.Store(z.head.Load())
	z.head.Store(ref)
	z.mu.Unlock()
}

// insertOrdered links ref at its invariant position: after every run of
// a lower level or (within the level) a newer block range, before the
// rest. Recovery uses it to rebuild runs whose natural prepend slot has
// already been taken by later runs; it is not safe against concurrent
// list maintenance beyond the zone lock it takes.
func (z *zoneList) insertOrdered(ref *runRef) {
	z.mu.Lock()
	defer z.mu.Unlock()
	var pred *runRef
	for cur := z.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.level() > ref.level() ||
			(cur.level() == ref.level() && cur.blocks().Max < ref.blocks().Min) {
			break
		}
		pred = cur
	}
	if pred == nil {
		ref.next.Store(z.head.Load())
		z.head.Store(ref)
		return
	}
	ref.next.Store(pred.next.Load())
	pred.next.Store(ref)
}

// snapshot acquires every live run in list order (newest first). If a node
// dies between being observed and acquired, the walk restarts from the
// head; GC is rare so retries are too. The returned release function drops
// all acquired references.
func (z *zoneList) snapshot() ([]*runRef, func()) {
	for {
		var acc []*runRef
		ok := true
		for cur := z.head.Load(); cur != nil; cur = cur.next.Load() {
			if !cur.acquire() {
				ok = false
				break
			}
			acc = append(acc, cur)
		}
		if ok {
			return acc, func() {
				for _, r := range acc {
					r.release()
				}
			}
		}
		for _, r := range acc {
			r.release()
		}
	}
}

// replaceSegment splices newRef into the position occupied by the
// contiguous segment seg (which must be in list order). Following Figure 4
// of the paper: the new run first points at the segment's successor, then
// the predecessor is repointed — each step leaves a valid list. The
// segment nodes keep their next pointers so readers standing on them walk
// back into the live list.
//
// Callers must hold z.mu. The segment's list references are released and
// the nodes are marked obsolete when deleteObjects is true.
func (z *zoneList) replaceSegment(seg []*runRef, newRef *runRef, deleteObjects bool) {
	first, last := seg[0], seg[len(seg)-1]
	newRef.next.Store(last.next.Load())

	if pred := z.predecessor(first); pred != nil {
		pred.next.Store(newRef)
	} else {
		z.head.Store(newRef)
	}
	for _, r := range seg {
		if deleteObjects {
			r.obsolete.Store(true)
		}
		r.release() // drop the list reference
	}
}

// remove splices a single run out of the list (evolve GC, §5.4 step 3).
// Callers must hold z.mu.
func (z *zoneList) remove(ref *runRef, deleteObject bool) {
	if pred := z.predecessor(ref); pred != nil {
		pred.next.Store(ref.next.Load())
	} else if z.head.Load() == ref {
		z.head.Store(ref.next.Load())
	} else {
		return // already gone
	}
	if deleteObject {
		ref.obsolete.Store(true)
	}
	ref.release()
}

// predecessor returns the node whose next points at ref, or nil if ref is
// the head (or absent). Callers must hold z.mu.
func (z *zoneList) predecessor(ref *runRef) *runRef {
	cur := z.head.Load()
	if cur == ref {
		return nil
	}
	for cur != nil {
		nxt := cur.next.Load()
		if nxt == ref {
			return cur
		}
		cur = nxt
	}
	return nil
}

// runsLocked returns the current list contents. Callers must hold z.mu.
func (z *zoneList) runsLocked() []*runRef {
	var out []*runRef
	for cur := z.head.Load(); cur != nil; cur = cur.next.Load() {
		out = append(out, cur)
	}
	return out
}

// len returns the number of runs currently linked (diagnostics only).
func (z *zoneList) len() int {
	n := 0
	for cur := z.head.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}
