package wildfire

import (
	"container/list"
	"context"
	"sync"

	"umzi/internal/columnar"
	"umzi/internal/obs"
)

// blockCache is the byte-budgeted decoded-block cache: one LRU of parsed
// columnar blocks keyed by storage object name, under one mutex, shared
// by every index of a table's shards (block names embed the shard, so
// one budget covers the whole table). Admission charges each block its
// MemSize and evicts from the LRU tail until the block fits, so the
// block evicted is always the table's least recently used one. A
// singleflight collapses N concurrent misses for one block into a
// single storage read and a single columnar.Unmarshal.
//
// The budget is a hard ceiling on occupancy: a block larger than the
// whole budget is simply not cached (the caller still gets the decoded
// block). A block's MemSize is read under the lock, and a block grows
// only when a query publishes its key fingerprints, after which the
// query calls recharge; recharge re-admits the block at its new size
// under the same lock. Retired blocks — deleted from storage but
// possibly still referenced by in-flight queries — are held outside the
// cache by the engine's epoch-drain queue, so eviction never has to
// distinguish them.

// defaultBlockCacheBytes is the per-table decoded-block budget when
// none is configured.
const defaultBlockCacheBytes = 256 << 20

// blockFetch is one in-flight fetch; waiters block on done.
type blockFetch struct {
	done chan struct{}
	blk  *columnar.Block
	err  error
}

// cacheEntry is one resident block, the Value of its LRU element.
type cacheEntry struct {
	name string
	blk  *columnar.Block
	size int64
}

// blockCache is safe for concurrent use. See the comment above.
type blockCache struct {
	budget int64

	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      list.List // front = most recently used
	inflight map[string]*blockFetch
	bytes    int64 // summed size of the resident entries

	// Handles are bound by instrument(); newBlockCache binds them into a
	// private registry so they are never nil.
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	dedups    *obs.Counter
}

// newBlockCache creates a cache with the given byte budget (<=0 selects
// defaultBlockCacheBytes).
func newBlockCache(budget int64) *blockCache {
	if budget <= 0 {
		budget = defaultBlockCacheBytes
	}
	c := &blockCache{
		budget:   budget,
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*blockFetch),
	}
	c.instrument(nil, "")
	return c
}

// instrument (re)binds the cache's metric handles into a registry under
// the table label. The sharded layer creates the table's one cache and
// instruments it under the base table name.
func (c *blockCache) instrument(reg *obs.Registry, table string) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.Labels{"table": table}
	c.hits = reg.Counter("block_cache_hits", "decoded-block lookups served from the bounded cache", l)
	c.misses = reg.Counter("block_cache_misses", "decoded-block lookups that led a storage fetch", l)
	c.evictions = reg.Counter("block_cache_evictions", "decoded blocks evicted to stay under the byte budget", l)
	c.dedups = reg.Counter("block_cache_dedup", "concurrent misses that piggybacked on another query's fetch", l)
	reg.GaugeFunc("block_cache_bytes", "decoded-block bytes resident in the bounded cache", l,
		func() int64 { return c.stats().Bytes })
	reg.GaugeFunc("block_cache_budget_bytes", "configured decoded-block cache byte budget", l,
		func() int64 { return c.budget })
	reg.GaugeFunc("block_cache_blocks", "decoded blocks resident in the bounded cache", l,
		func() int64 { return c.stats().Blocks })
}

// BlockCacheStats is a point-in-time snapshot for tooling and tests.
type BlockCacheStats struct {
	Bytes     int64
	Budget    int64
	Blocks    int64
	Hits      int64
	Misses    int64
	Evictions int64
	Dedups    int64
}

// stats snapshots occupancy and traffic counters.
func (c *blockCache) stats() BlockCacheStats {
	c.mu.Lock()
	bytes, blocks := c.bytes, int64(c.lru.Len())
	c.mu.Unlock()
	return BlockCacheStats{
		Bytes:     bytes,
		Budget:    c.budget,
		Blocks:    blocks,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Dedups:    c.dedups.Load(),
	}
}

// get returns the cached block, promoting it to most-recently-used.
func (c *blockCache) get(name string) (*columnar.Block, bool) {
	c.mu.Lock()
	blk, ok := c.lookupLocked(name)
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	}
	return blk, ok
}

// getOrFetch reads through the cache: a hit returns immediately; a miss
// either joins an in-flight fetch for the same name (dedup) or runs the
// fetch itself and caches the result.
func (c *blockCache) getOrFetch(ctx context.Context, name string, fetch func() (*columnar.Block, error)) (*columnar.Block, error) {
	for {
		c.mu.Lock()
		if blk, ok := c.lookupLocked(name); ok {
			c.mu.Unlock()
			c.hits.Inc()
			return blk, nil
		}
		if f, ok := c.inflight[name]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.dedups.Inc()
					return f.blk, nil
				}
				// The leader failed — possibly only its own context. Retry
				// as leader rather than inheriting a cancellation that is
				// not ours.
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &blockFetch{done: make(chan struct{})}
		c.inflight[name] = f
		c.mu.Unlock()

		c.misses.Inc()
		f.blk, f.err = fetch()

		// Admit and clear the in-flight marker in one critical section: a
		// racing miss either joins this fetch or finds the cached entry.
		c.mu.Lock()
		if f.err == nil {
			c.admitLocked(name, f.blk)
		}
		delete(c.inflight, name)
		c.mu.Unlock()
		close(f.done)
		return f.blk, f.err
	}
}

// put inserts a freshly built block (groom and post-groom pre-populate
// the cache with the blocks they just wrote).
func (c *blockCache) put(name string, blk *columnar.Block) {
	c.mu.Lock()
	c.admitLocked(name, blk)
	c.mu.Unlock()
}

// drop removes the entry if present.
func (c *blockCache) drop(name string) {
	c.mu.Lock()
	if el, ok := c.entries[name]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
}

// recharge brings a resident block's charge up to its current MemSize by
// removing and re-admitting it, which evicts from the LRU tail as an
// insert would. A decoded block grows once after admission, when a query
// publishes its key fingerprints. A block that is not the resident
// decode of name is charged nothing.
func (c *blockCache) recharge(name string, blk *columnar.Block) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[name]
	if !ok || el.Value.(*cacheEntry).blk != blk {
		return
	}
	c.removeLocked(el)
	c.admitLocked(name, blk)
}

// lookupLocked returns the resident block and promotes it to
// most-recently-used.
func (c *blockCache) lookupLocked(name string) (*columnar.Block, bool) {
	el, ok := c.entries[name]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).blk, true
}

// admitLocked caches blk under name at its current MemSize, evicting
// LRU tails until it fits. A resident entry for name is kept (and
// promoted) rather than replaced; a block larger than the whole budget
// is not cached.
func (c *blockCache) admitLocked(name string, blk *columnar.Block) {
	if _, ok := c.lookupLocked(name); ok {
		return
	}
	size := int64(blk.MemSize())
	if size > c.budget {
		return
	}
	for c.bytes+size > c.budget {
		c.removeLocked(c.lru.Back())
		c.evictions.Inc()
	}
	c.entries[name] = c.lru.PushFront(&cacheEntry{name: name, blk: blk, size: size})
	c.bytes += size
}

func (c *blockCache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.name)
	c.bytes -= e.size
}
