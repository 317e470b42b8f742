package wildfire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"umzi/internal/core"
	"umzi/internal/keyenc"
	"umzi/internal/obs"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// The sharding layer. Wildfire is a sharded multi-master system: a table
// is hash-partitioned by its sharding key across shards, each shard is
// the unit of grooming, post-grooming and indexing, and each runs its
// own Umzi index instance (§2.1, §3). ShardedEngine is that table: it
// composes N>=1 independent shards — every table runs on one, an
// unsharded table being the N=1 case, which never scatters — routes
// upsert transactions to the shard owning their rows, and either pins a
// query to one shard or scatter-gathers it across all of them through a
// bounded worker pool, merging per-shard results (sort-merge for ordered
// scans, positional reassembly or partial-aggregate merge otherwise).
//
// Snapshot semantics across shards: every shard grooms independently, so
// there is no global commit clock — exactly as in Wildfire, where a
// query's read point is the "quorum-readable" groom boundary. The
// sharded engine keeps the shard groom clocks in lockstep (a groom round
// advances every shard's cycle, empty shards included) and resolves a
// query's default read point to the minimum groom boundary across
// shards, so one timestamp cuts every shard at a groomed prefix and
// repeated reads at that timestamp are stable.

// ShardedConfig configures a ShardedEngine.
type ShardedConfig struct {
	Table TableDef
	Index IndexSpec
	// Secondaries declares secondary indexes maintained alongside the
	// primary through the whole groom/post-groom/evolve pipeline; every
	// shard maintains its own instance of each. On a recovered table,
	// declarations already in a shard's stored index catalog are reopened
	// (their specs must match); new names are built online from the
	// existing zones (CREATE INDEX backfill).
	Secondaries []SecondaryIndexSpec
	// Shards is the number of hash partitions (default 4).
	Shards int
	// Parallelism bounds the scatter-gather worker pool shared by all
	// queries of this engine. The default equals Shards: a fan-out query
	// can overlap the shared-storage reads of every shard at once, which
	// is where scatter-gather wins (I/O parallelism against shared
	// storage, CPU parallelism on multi-core).
	Parallelism int
	// Store is the shared storage backend used by every shard; shard
	// objects live under "tbl/<name>/shard-NNN/..." ("tbl/<name>/..." for
	// a 1-shard table).
	Store storage.ObjectStore
	// Cache is the local SSD cache shared by all shards (one node's
	// cache in front of shared storage); nil disables caching.
	Cache *storage.SSDCache
	// BlockCacheBytes budgets the table's decoded-block cache, which
	// every shard reads through (<=0 selects defaultBlockCacheBytes).
	// Shard block names are globally disjoint, so one byte budget
	// covers the table.
	BlockCacheBytes int64
	// ScanParallelism bounds each shard's intra-shard scan worker pool.
	// <=0 derives a per-shard default from GOMAXPROCS divided by the
	// shard count, so a fan-out query saturates the machine without
	// oversubscribing it; 1 scans each shard sequentially.
	ScanParallelism int
	// Partitions is the number of partition-key buckets each shard's
	// post-groomer writes (default 4; ignored without a partition key).
	Partitions int
	// IndexTuning forwards merge-policy and level-assignment knobs to
	// every Umzi index of every shard; zero values keep core defaults.
	// Name/Def/Store/Cache are managed by the engine and ignored here.
	IndexTuning core.Config
	// Durability configures every shard's commit log (one log per
	// shard). Shard watermarks advance in lockstep with the groom
	// rounds, so a cross-shard snapshot cuts every shard at a recovered
	// prefix. The zero value is full per-commit durability.
	Durability DurabilityOptions
	// Obs is the metrics registry every shard registers into; nil gives
	// the engine a private registry (metrics still work, nothing is
	// exported). Shard metrics are labeled by shard-qualified table name.
	Obs *obs.Registry
}

// ShardedEngine is a Wildfire table: N>=1 shards behind one
// routing, ingest and query front end (RunQuery).
type ShardedEngine struct {
	table  TableDef
	shards []*shard
	router *shardRouter
	pool   *gatherPool

	// mx is the coordinator's metric bundle, labeled by the base table
	// name: cross-shard query counts/latencies and stream release errors.
	// Per-shard ingest/groom/storage metrics live in the shards' own
	// bundles (same registry, shard-qualified table label).
	mx *engineMetrics

	// createMu serializes whole CreateIndex operations across callers.
	// The table's index set is the shards' own: the coordinator keeps no
	// copy of it.
	createMu sync.Mutex

	// groomMu serializes groom rounds so the lockstep cycle advance stays
	// consistent.
	groomMu sync.Mutex

	stopCh chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// ShardTableName names one shard's table; every storage object of the
// shard lives under the derived "tbl/<this>/" prefix, disjoint between
// shards and recoverable independently. The only shard of a 1-shard
// table is the table itself: its objects and metric labels carry no
// shard segment.
func ShardTableName(base string, shards, shard int) string {
	if shards <= 1 {
		return base
	}
	return fmt.Sprintf("%s/shard-%03d", base, shard)
}

// NewShardedEngine creates (or recovers, per shard) a sharded engine.
// The config is validated and defaulted once, here, before any shard
// opens.
func NewShardedEngine(cfg ShardedConfig) (*ShardedEngine, error) {
	if err := cfg.Table.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Index.Validate(cfg.Table); err != nil {
		return nil, err
	}
	declared := map[string]bool{}
	for _, sec := range cfg.Secondaries {
		if err := sec.Validate(cfg.Table); err != nil {
			return nil, err
		}
		if declared[sec.Name] {
			return nil, fmt.Errorf("wildfire: duplicate secondary index %q", sec.Name)
		}
		declared[sec.Name] = true
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("wildfire: ShardedConfig needs Store")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = cfg.Shards
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}

	s := &ShardedEngine{
		table:  cfg.Table,
		router: newShardRouter(cfg.Table, cfg.Shards),
		pool:   newGatherPool(cfg.Parallelism),
		stopCh: make(chan struct{}),
	}
	s.mx = newEngineMetrics(cfg.Obs, cfg.Table.Name)
	// One decoded-block cache for the whole table: shard object names
	// are disjoint, so the shards share a single byte budget instead of
	// each holding 1/Nth privately.
	blocks := newBlockCache(cfg.BlockCacheBytes)
	blocks.instrument(cfg.Obs, cfg.Table.Name)
	scanPar := cfg.ScanParallelism
	if scanPar <= 0 {
		// A scatter-gather query already runs one goroutine per shard;
		// splitting GOMAXPROCS across them keeps the default fan-out at
		// roughly one worker per core.
		if scanPar = runtime.GOMAXPROCS(0) / cfg.Shards; scanPar < 1 {
			scanPar = 1
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(cfg, i, blocks, scanPar)
		if err != nil {
			for _, e := range s.shards {
				e.close()
			}
			return nil, fmt.Errorf("wildfire: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, sh)
	}
	// Recovery can leave shard groom clocks unequal (empty-cycle advances
	// are not persisted); realign so the first snapshot is consistent.
	var max uint64
	for _, e := range s.shards {
		if c := e.groomCycle.Load(); c > max {
			max = c
		}
	}
	for _, e := range s.shards {
		e.alignGroomCycle(max)
	}
	// Heal the index set: every shard must hold every secondary any
	// shard holds — declared ones plus any recovered from the shard
	// catalogs. The union is taken across ALL shards: a crash
	// mid-CreateIndex can leave an index on a subset of shards, and
	// per-shard createIndex is idempotent, so re-running it converges
	// the stragglers (backfilling from their zones) instead of leaving
	// scattered queries to fail on the shards that missed it.
	var union []SecondaryIndexSpec
	seen := map[string]IndexSpec{}
	for i, e := range s.shards {
		for _, spec := range e.secondarySpecs() {
			if prev, ok := seen[spec.Name]; ok {
				if !specEqual(prev, spec.IndexSpec) {
					s.Close()
					return nil, fmt.Errorf("wildfire: shard %d recovered index %q with a conflicting spec", i, spec.Name)
				}
				continue
			}
			seen[spec.Name] = spec.IndexSpec
			union = append(union, spec)
		}
	}
	for _, spec := range union {
		for i, e := range s.shards {
			// Only the stragglers rebuild; a shard that recovered the
			// index from its own catalog is left untouched (createIndex
			// would be idempotent but rewrites the catalog).
			if _, err := e.lookupIndex(spec.Name); err == nil {
				continue
			}
			if err := e.createIndex(spec); err != nil {
				s.Close()
				return nil, fmt.Errorf("wildfire: shard %d: healing index %q: %w", i, spec.Name, err)
			}
		}
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *ShardedEngine) NumShards() int { return len(s.shards) }

// BlockCacheStats snapshots the decoded-block cache shared by every
// shard.
func (s *ShardedEngine) BlockCacheStats() BlockCacheStats { return s.shards[0].blocks.stats() }

// SecondarySpecs returns the declared spec of every secondary, in
// creation order (every shard holds the same set; shard 0 answers).
func (s *ShardedEngine) SecondarySpecs() []SecondaryIndexSpec {
	return s.shards[0].secondarySpecs()
}

// Table returns the table definition.
func (s *ShardedEngine) Table() TableDef { return s.table }

// SnapshotTS returns the default cross-shard read point: the minimum
// groom boundary over all shards. Every shard shows a groomed prefix at
// this timestamp, and with lockstep grooming it equals each shard's own
// boundary.
func (s *ShardedEngine) SnapshotTS() types.TS {
	min := types.MaxTS
	for _, e := range s.shards {
		if ts := e.lastGroomTS(); ts < min {
			min = ts
		}
	}
	return min
}

// resolveTS pins a default read (TS 0) to SnapshotTS, so every shard is
// cut at one groomed prefix. A default read that includes live keeps TS
// 0: each shard then reads at its own groom boundary plus its live
// zone, which loses no row while a groom round has reached only some
// shards (a shard past SnapshotTS no longer holds those rows live).
func (s *ShardedEngine) resolveTS(opts QueryOptions) types.TS {
	if opts.TS == 0 && !opts.IncludeLive {
		return s.SnapshotTS()
	}
	return opts.TS
}

// Start launches the table's two background loops, both ticking every
// groomEvery: the propagation owner (propagate: groom, post-groom once
// postGroomEvery has elapsed, evolve and reclaim) and the index
// maintainer (maintain: merges and SSD-cache adjustment). Grooms run as
// lockstep rounds across the shards — never per shard, which would let
// an idle shard's snapshot clock freeze and pin SnapshotTS (the min over
// shards) forever. Merges have their own loop so that a long merge never
// delays a groom.
func (s *ShardedEngine) Start(groomEvery, postGroomEvery time.Duration) {
	s.wg.Add(2)
	go func() {
		lastPost := time.Now()
		s.loop(groomEvery, func() {
			post := time.Since(lastPost) >= postGroomEvery
			if post {
				lastPost = time.Now()
			}
			_ = s.propagate(post)
		})
	}()
	go s.loop(groomEvery, s.maintain)
}

// loop runs step every interval until Close.
func (s *ShardedEngine) loop(every time.Duration, step func()) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			step()
		}
	}
}

// propagate is one step of the propagation owner: a lockstep groom round,
// a post-groom when post is set, then evolve and block reclaim — in that
// order, each fanned out across the shards. A failed round does not skip
// the later ones; the errors are joined.
func (s *ShardedEngine) propagate(post bool) error {
	err := s.Groom()
	if post {
		err = errors.Join(err, s.PostGroom())
	}
	return errors.Join(err, s.SyncIndex())
}

// maintain is one tick of the index maintainer: for every shard in turn
// and every index of its set, one merge attempt per level, then the SSD
// cache adjustment. It runs outside the gather pool, which queries share.
// Errors are retried next tick; an index created since the last tick is
// picked up by this one.
func (s *ShardedEngine) maintain() {
	for _, e := range s.shards {
		for _, ti := range e.indexSet() {
			_, _ = ti.idx.MaintainOnce()
			ti.idx.AdjustCache()
		}
	}
}

// Close stops both loops, then closes all shards.
func (s *ShardedEngine) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stopCh)
	s.wg.Wait()
	var first error
	for _, e := range s.shards {
		if err := e.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Commit commits rows to every shard they touch, keeping the rows
// without a copy. Every row is validated before any is committed. Rows
// are routed to their owning shards in order and committed shard by
// shard; the context is checked before each shard. Cross-shard commits
// are not atomic — per Wildfire's semantics a commit becomes durable
// per shard and visible
// at groom time (§2.1), so a cancellation or crash between shards
// leaves the earlier shards committed.
func (s *ShardedEngine) Commit(ctx context.Context, rows []Row) error {
	if s.closed.Load() {
		return fmt.Errorf("wildfire: engine closed")
	}
	for _, r := range rows {
		if err := s.table.validateRow(r); err != nil {
			return err
		}
	}
	perShard := [][]Row{rows}
	if len(s.shards) > 1 {
		perShard = make([][]Row, len(s.shards))
		for _, r := range rows {
			shard := s.router.shardOfRow(r)
			perShard[shard] = append(perShard[shard], r)
		}
	}
	for shard, rows := range perShard {
		if len(rows) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("wildfire: commit interrupted before shard %d (earlier shards are durable): %w", shard, err)
		}
		if err := s.shards[shard].commit(rows); err != nil {
			return err
		}
	}
	return nil
}

// UpsertRows commits a copy of rows (see Commit).
func (s *ShardedEngine) UpsertRows(rows ...Row) error {
	return s.Commit(context.Background(), cloneRows(rows))
}

// WALStatus reports every shard's commit-log state, indexed by shard.
func (s *ShardedEngine) WALStatus() []WALStatus {
	out := make([]WALStatus, len(s.shards))
	for i, e := range s.shards {
		out[i] = e.walStatus()
	}
	return out
}

// LiveCount reports committed-but-ungroomed records across all shards.
func (s *ShardedEngine) LiveCount() int {
	n := 0
	for _, e := range s.shards {
		n += e.liveCount()
	}
	return n
}

// Groom performs one lockstep groom round: every shard grooms in
// parallel, then shards that had nothing advance their groom clock to
// the round's cycle so the cross-shard snapshot boundary moves as one.
func (s *ShardedEngine) Groom() error {
	_, err := s.groomCount()
	return err
}

// groomCount is Groom returning the total records groomed.
func (s *ShardedEngine) groomCount() (int, error) {
	if s.closed.Load() {
		return 0, fmt.Errorf("wildfire: engine closed")
	}
	s.groomMu.Lock()
	defer s.groomMu.Unlock()
	counts := make([]int, len(s.shards))
	err := s.pool.each(context.Background(), len(s.shards), func(i int) error {
		n, err := s.shards[i].groomCount()
		counts[i] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	total := 0
	var maxCycle uint64
	for i, e := range s.shards {
		total += counts[i]
		if c := e.groomCycle.Load(); c > maxCycle {
			maxCycle = c
		}
	}
	if total > 0 {
		for _, e := range s.shards {
			e.alignGroomCycle(maxCycle)
		}
	}
	return total, nil
}

// PostGroom runs one post-groom operation on every shard in parallel.
func (s *ShardedEngine) PostGroom() error {
	if s.closed.Load() {
		return fmt.Errorf("wildfire: engine closed")
	}
	return s.pool.each(context.Background(), len(s.shards), func(i int) error {
		_, err := s.shards[i].postGroom()
		return err
	})
}

// SyncIndex applies pending index evolve operations on every shard.
func (s *ShardedEngine) SyncIndex() error {
	if s.closed.Load() {
		return fmt.Errorf("wildfire: engine closed")
	}
	return s.pool.each(context.Background(), len(s.shards), func(i int) error {
		return s.shards[i].syncIndex()
	})
}

// MaintainOnce runs one maintenance pass (one merge attempt per level of
// each zone) over every index of every shard; it reports whether any
// merged. Unlike the index maintainer it fans out through the gather
// pool and skips the SSD-cache adjustment.
func (s *ShardedEngine) MaintainOnce() (bool, error) {
	if s.closed.Load() {
		return false, fmt.Errorf("wildfire: engine closed")
	}
	did := make([]bool, len(s.shards))
	err := s.pool.each(context.Background(), len(s.shards), func(i int) error {
		d, err := s.shards[i].maintainOnce()
		did[i] = d
		return err
	})
	for _, d := range did {
		if d {
			return true, err
		}
	}
	return false, err
}

// SetCachedLevel moves the cached level (§6.2) of every index of every
// shard: runs above level leave the SSD cache and the rest are loaded
// back; -1 purges every run. Figure 14 sweeps it.
func (s *ShardedEngine) SetCachedLevel(level int) {
	for _, e := range s.shards {
		for _, ti := range e.indexSet() {
			ti.idx.SetCachedLevel(level)
		}
	}
}

// primary returns the table's primary index: element 0 of the shards'
// index set, the set every shard holds.
func (s *ShardedEngine) primary() *tableIndex { return s.shards[0].indexSet()[0] }

// checkFullKey validates a point-lookup key of the primary pri before
// routing: the router indexes into eq/sortv, so a short key must fail
// with an error instead of panicking.
func checkFullKey(pri *tableIndex, eq, sortv []keyenc.Value) error {
	if len(eq) != len(pri.spec.Equality) || len(sortv) != len(pri.spec.Sort) {
		return fmt.Errorf("wildfire: point lookup requires the full key (%d+%d values, want %d+%d)",
			len(eq), len(sortv), len(pri.spec.Equality), len(pri.spec.Sort))
	}
	return nil
}

// get is the coordinator's point get: the newest visible version of a
// primary key. The full key determines the sharding key, so the lookup
// always pins to one shard.
func (s *ShardedEngine) get(ctx context.Context, eq, sortv []keyenc.Value, opts QueryOptions) (Record, bool, error) {
	if s.closed.Load() {
		return Record{}, false, fmt.Errorf("wildfire: engine closed")
	}
	pri := s.primary()
	if err := checkFullKey(pri, eq, sortv); err != nil {
		return Record{}, false, err
	}
	opts.TS = s.resolveTS(opts)
	return s.shards[s.router.shardOfKey(pri, eq, sortv)].getOn(ctx, eq, sortv, opts)
}

// GetBatch resolves a batch of point lookups: keys group by owning
// shard, the per-shard sub-batches run concurrently through each shard's
// sorted-batch path (§7.2), and results reassemble positionally. It
// reads the indexed zones only, so it refuses IncludeLive rather than
// return a groomed version a live one has replaced.
func (s *ShardedEngine) GetBatch(keys []core.LookupKey, opts QueryOptions) ([]Record, []bool, error) {
	if s.closed.Load() {
		return nil, nil, fmt.Errorf("wildfire: engine closed")
	}
	if opts.IncludeLive {
		return nil, nil, fmt.Errorf("wildfire: GetBatch does not support IncludeLive (it reads the indexed zones only)")
	}
	opts.TS = s.resolveTS(opts)
	perShard := make([][]core.LookupKey, len(s.shards))
	perShardPos := make([][]int, len(s.shards))
	pri := s.primary()
	for i, k := range keys {
		if err := checkFullKey(pri, k.Equality, k.Sort); err != nil {
			return nil, nil, fmt.Errorf("batch key %d: %w", i, err)
		}
		shard := s.router.shardOfKey(pri, k.Equality, k.Sort)
		perShard[shard] = append(perShard[shard], k)
		perShardPos[shard] = append(perShardPos[shard], i)
	}
	out := make([]Record, len(keys))
	found := make([]bool, len(keys))
	// Each shard writes a disjoint set of positions, and pool.each's wait
	// orders the writes before the return — no lock needed.
	err := s.pool.each(context.Background(), len(s.shards), func(i int) error {
		if len(perShard[i]) == 0 {
			return nil
		}
		recs, ok, err := s.shards[i].getBatch(context.Background(), perShard[i], opts)
		if err != nil {
			return err
		}
		for j, pos := range perShardPos[i] {
			out[pos] = recs[j]
			found[pos] = ok[j]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, found, nil
}

// tableIndexStream opens the one ordered index stream of the table:
// pinned to the single shard able to serve it (a 1-shard table's scans
// are the shard's own cursors, with no worker or merge in between), or
// scattered to every shard with the per-shard indexStreams k-way merged
// on their entries' key bytes. Those bytes order like the index key and
// share the equality prefix on every shard, and secondary keys embed
// the primary key, so they merge without re-encoding and never tie
// across shards.
// Closing the cursor early — or cancelling ctx — stops the workers;
// they are waited out before Close returns.
func tableIndexStream[T any](ctx context.Context, s *ShardedEngine, sc indexScan, opts QueryOptions, step rowStep[T]) (*Cursor[T], error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("wildfire: engine closed")
	}
	ti, err := s.shards[0].lookupIndex(sc.index)
	if err != nil {
		return nil, err
	}
	if len(sc.eq) != len(ti.spec.Equality) {
		return nil, fmt.Errorf("wildfire: index %q scan requires all equality values (%d, want %d)",
			ti.name, len(sc.eq), len(ti.spec.Equality))
	}
	opts.TS = s.resolveTS(opts)
	open := func(ctx context.Context, shard int) (*Cursor[shardItem[T]], error) {
		return indexStream(ctx, s.shards[shard], sc, opts, step)
	}
	shard, pinned := s.router.pin(ti, sc.eq)
	if !pinned {
		return scatterStream(ctx, s.pool, len(s.shards), sc.limit, open, s.mx.onReleaseErr), nil
	}
	cur, err := open(ctx, shard)
	if err != nil {
		return nil, err
	}
	return newCursor(func() (T, bool, error) {
		if cur.Next() {
			return cur.Value().val, true, nil
		}
		var zero T
		return zero, false, cur.Err()
	}, cur.Close), nil
}
