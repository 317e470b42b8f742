package wildfire

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"umzi/internal/columnar"
	"umzi/internal/obs"
)

// BlockCache is the byte-budgeted decoded-block cache: a sharded LRU of
// parsed columnar blocks keyed by storage object name, shared by every
// index of an engine — and, through ShardedConfig, by every shard of a
// table (block names embed the shard, so one budget covers the whole
// table). It replaces the unbounded per-engine memo map: admission
// charges each block its MemSize, eviction walks the LRU tail, and a
// per-shard singleflight collapses N concurrent misses for one block
// into a single storage read and a single columnar.Unmarshal.
//
// The budget is a hard ceiling on occupancy: an insert that cannot fit
// after evicting every unpinned entry is simply not cached (the caller
// still gets the decoded block). Retired blocks — deleted from storage
// but possibly still referenced by in-flight queries — are held outside
// the cache by the engine's epoch-drain queue, so eviction never has to
// distinguish them.

const (
	blockCacheShards = 8

	// DefaultBlockCacheBytes is the per-table decoded-block budget when
	// none is configured.
	DefaultBlockCacheBytes = 256 << 20
)

// blockFetch is one in-flight fetch; waiters block on done.
type blockFetch struct {
	done chan struct{}
	blk  *columnar.Block
	err  error
}

// cacheEntry is one resident block.
type cacheEntry struct {
	name string
	blk  *columnar.Block
	size int64
	elem *list.Element
}

// blockCacheShard is one lock stripe: its own LRU and singleflight
// table. Byte accounting is global (BlockCache.bytes), so the whole
// budget is usable no matter how names hash across stripes.
type blockCacheShard struct {
	mu       sync.Mutex
	entries  map[string]*cacheEntry
	lru      *list.List // front = most recently used
	inflight map[string]*blockFetch
}

// BlockCache is safe for concurrent use. See the package comment above.
type BlockCache struct {
	budget      int64
	shards      [blockCacheShards]blockCacheShard
	bytes       atomic.Int64 // total occupancy across shards
	entries     atomic.Int64
	evictCursor atomic.Uint64 // round-robin start stripe for evictOne

	// Handles are bound by instrument(); NewBlockCache binds them into a
	// private registry so they are never nil.
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	dedups    *obs.Counter
}

// NewBlockCache creates a cache with the given byte budget (<=0 selects
// DefaultBlockCacheBytes). Admission reserves bytes against the global
// budget atomically, so the summed occupancy can never exceed it.
func NewBlockCache(budget int64) *BlockCache {
	if budget <= 0 {
		budget = DefaultBlockCacheBytes
	}
	c := &BlockCache{budget: budget}
	for i := range c.shards {
		c.shards[i] = blockCacheShard{
			entries:  make(map[string]*cacheEntry),
			lru:      list.New(),
			inflight: make(map[string]*blockFetch),
		}
	}
	c.instrument(nil, "")
	return c
}

// instrument (re)binds the cache's metric handles into a registry under
// the table label. The engine that creates a cache instruments it; a
// cache shared across shards is instrumented once, by the sharded
// layer, under the base table name.
func (c *BlockCache) instrument(reg *obs.Registry, table string) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.Labels{"table": table}
	c.hits = reg.Counter("block_cache_hits", "decoded-block lookups served from the bounded cache", l)
	c.misses = reg.Counter("block_cache_misses", "decoded-block lookups that led a storage fetch", l)
	c.evictions = reg.Counter("block_cache_evictions", "decoded blocks evicted to stay under the byte budget", l)
	c.dedups = reg.Counter("block_cache_dedup", "concurrent misses that piggybacked on another query's fetch", l)
	reg.GaugeFunc("block_cache_bytes", "decoded-block bytes resident in the bounded cache", l,
		func() int64 { return c.bytes.Load() })
	reg.GaugeFunc("block_cache_budget_bytes", "configured decoded-block cache byte budget", l,
		func() int64 { return c.budget })
	reg.GaugeFunc("block_cache_blocks", "decoded blocks resident in the bounded cache", l,
		func() int64 { return c.entries.Load() })
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

// Stats snapshots occupancy and traffic counters.
func (c *BlockCache) Stats() BlockCacheStats {
	return BlockCacheStats{
		Bytes:     c.bytes.Load(),
		Budget:    c.budget,
		Blocks:    c.entries.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Dedups:    c.dedups.Load(),
	}
}

// shard stripes by FNV-1a over the object name.
func (c *BlockCache) shard(name string) *blockCacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return &c.shards[h%blockCacheShards]
}

// get returns the cached block, promoting it to most-recently-used.
func (c *BlockCache) get(name string) (*columnar.Block, bool) {
	s := c.shard(name)
	s.mu.Lock()
	e, ok := s.entries[name]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Inc()
	return e.blk, true
}

// getOrFetch reads through the cache: a hit returns immediately; a miss
// either joins an in-flight fetch for the same name (dedup) or runs the
// fetch itself and caches the result. dedup reports whether the call
// piggybacked on another fetch — the caller paid no storage read either
// way when dedup is true or the lookup hit.
func (c *BlockCache) getOrFetch(ctx context.Context, name string, fetch func() (*columnar.Block, error)) (blk *columnar.Block, dedup bool, err error) {
	s := c.shard(name)
	for {
		s.mu.Lock()
		if e, ok := s.entries[name]; ok {
			s.lru.MoveToFront(e.elem)
			s.mu.Unlock()
			c.hits.Inc()
			return e.blk, true, nil
		}
		if f, ok := s.inflight[name]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.dedups.Inc()
					return f.blk, true, nil
				}
				// The leader failed — possibly only its own context. Retry
				// as leader rather than inheriting a cancellation that is
				// not ours.
				if cerr := ctx.Err(); cerr != nil {
					return nil, false, cerr
				}
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		f := &blockFetch{done: make(chan struct{})}
		s.inflight[name] = f
		s.mu.Unlock()

		c.misses.Inc()
		f.blk, f.err = fetch()

		// Insert before clearing the inflight marker, so a racing miss in
		// the gap either sees the cached entry or still joins this fetch.
		if f.err == nil {
			c.insert(name, f.blk)
		}
		s.mu.Lock()
		delete(s.inflight, name)
		s.mu.Unlock()
		close(f.done)
		return f.blk, false, f.err
	}
}

// put inserts a freshly built block (groom and post-groom pre-populate
// the cache with the blocks they just wrote).
func (c *BlockCache) put(name string, blk *columnar.Block) {
	c.insert(name, blk)
}

// drop removes the entry if present.
func (c *BlockCache) drop(name string) {
	s := c.shard(name)
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		s.removeLocked(c, e)
	}
	s.mu.Unlock()
}

// insert admits a block under the global byte budget. It reserves the
// block's bytes with a compare-and-swap against the budget — evicting
// LRU tails across stripes while the total cannot take the block — so
// concurrent inserts can never push the summed occupancy past the
// ceiling. A block that does not fit once every stripe is drained is
// simply not cached; the caller still holds the decode.
func (c *BlockCache) insert(name string, blk *columnar.Block) {
	size := int64(blk.MemSize())
	if size > c.budget {
		return
	}
	s := c.shard(name)
	s.mu.Lock()
	if old, ok := s.entries[name]; ok && old.blk == blk {
		s.lru.MoveToFront(old.elem)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	if !c.reserve(size) {
		return
	}
	s.mu.Lock()
	if old, ok := s.entries[name]; ok {
		// Raced with another insert of the same name: keep the resident
		// decode and release our reservation.
		s.lru.MoveToFront(old.elem)
		s.mu.Unlock()
		c.bytes.Add(-size)
		return
	}
	e := &cacheEntry{name: name, blk: blk, size: size}
	e.elem = s.lru.PushFront(e)
	s.entries[name] = e
	c.entries.Add(1)
	s.mu.Unlock()
	if int64(blk.MemSize()) > size {
		// The block grew between the size read and the entry's admission;
		// a recharge in that window found no entry to charge.
		c.recharge(name, blk)
	}
}

// reserve takes size bytes of the budget, evicting LRU tails while the
// total cannot take them. It reports false, reserving nothing, once
// every stripe is empty and the bytes still do not fit.
func (c *BlockCache) reserve(size int64) bool {
	for {
		cur := c.bytes.Load()
		if cur+size <= c.budget {
			if c.bytes.CompareAndSwap(cur, cur+size) {
				return true
			}
			continue
		}
		if !c.evictOne() {
			return false
		}
	}
}

// recharge brings a resident block's charge up to its current MemSize.
// A decoded block grows once after admission, when a query publishes its
// key fingerprints on it; the growth is reserved under the budget like an
// insert, so occupancy still never exceeds it. A block that is not the
// resident decode of name is charged nothing.
func (c *BlockCache) recharge(name string, blk *columnar.Block) {
	s := c.shard(name)
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok || e.blk != blk {
		s.mu.Unlock()
		return
	}
	charged := e.size
	s.mu.Unlock()
	grow := int64(blk.MemSize()) - charged
	if grow <= 0 || !c.reserve(grow) {
		return
	}
	s.mu.Lock()
	if cur, ok := s.entries[name]; ok && cur == e && e.size == charged {
		e.size += grow
		s.mu.Unlock()
		return
	}
	// Evicted while reserving, or charged by a racing recharge.
	s.mu.Unlock()
	c.bytes.Add(-grow)
}

// evictOne removes one stripe's LRU tail, starting from a rotating
// cursor so pressure spreads. It reports false when every stripe is
// empty (nothing left to evict).
func (c *BlockCache) evictOne() bool {
	start := c.evictCursor.Add(1)
	for i := uint64(0); i < blockCacheShards; i++ {
		s := &c.shards[(start+i)%blockCacheShards]
		s.mu.Lock()
		if tail := s.lru.Back(); tail != nil {
			s.removeLocked(c, tail.Value.(*cacheEntry))
			s.mu.Unlock()
			c.evictions.Inc()
			return true
		}
		s.mu.Unlock()
	}
	return false
}

func (s *blockCacheShard) removeLocked(c *BlockCache, e *cacheEntry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.name)
	c.bytes.Add(-e.size)
	c.entries.Add(-1)
}
