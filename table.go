package umzi

import (
	"context"
	"time"

	"umzi/internal/wildfire"
)

// Table is the handle of one table of a DB: a single declarative query
// surface (Query) and transactional ingest over the table's N>=1 hash
// shards.
type Table struct {
	db   *DB
	name string
	eng  *wildfire.ShardedEngine
	// catalogEntry is the table's full catalog record as created or
	// recovered — the source of truth for catalog rewrites, so options
	// that are invisible on the engine (Replicas, Partitions,
	// Parallelism) survive every restart.
	catalogEntry dbCatalogEntry
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Def returns the table definition.
func (t *Table) Def() TableDef { return t.eng.Table() }

// NumShards returns the table's shard count (at least 1).
func (t *Table) NumShards() int { return t.eng.NumShards() }

// PrimaryIndex returns the table's primary Umzi index layout as created
// (or derived from the defaults) and persisted in the DB catalog.
func (t *Table) PrimaryIndex() IndexSpec { return t.catalogEntry.Index }

// BlockCacheStats snapshots the table's decoded-block cache: occupancy
// versus the configured byte budget plus hit/miss/eviction/dedup
// counters. A table's shards share one cache, so this is the whole
// table's read-path picture.
func (t *Table) BlockCacheStats() BlockCacheStats {
	return t.eng.BlockCache().Stats()
}

// entry returns the table's catalog record for persisting the DB
// catalog.
func (t *Table) entry() dbCatalogEntry { return t.catalogEntry }

// Query starts a fluent query against the table; see Query's docs for
// the builder surface and Run for execution.
func (t *Table) Query() *Query { return NewQuery(t.RunSpec) }

// RunSpec compiles and starts one pre-built declarative query spec,
// returning the same streaming Rows that Query().…Run(ctx) would: it is
// the in-process transport the builder runs over. The server front end
// calls it directly with specs that arrived over the wire
// (wildfire.UnmarshalQuerySpec), so local and remote execution share
// one entry point.
func (t *Table) RunSpec(ctx context.Context, spec wildfire.QuerySpec) (*Rows, error) {
	qr, err := t.eng.RunQuery(ctx, spec)
	if err != nil {
		return nil, err
	}
	return NewRows(ctx, qr.Columns, qr.Cursor), nil
}

// Upsert runs one auto-committed transaction staging the rows on
// replica 0.
func (t *Table) Upsert(ctx context.Context, rows ...Row) error {
	return t.UpsertReplica(ctx, 0, rows...)
}

// UpsertReplica is Upsert through a chosen multi-master replica.
func (t *Table) UpsertReplica(ctx context.Context, replica int, rows ...Row) error {
	tx, err := t.db.Begin(ctx)
	if err != nil {
		return err
	}
	if err := tx.WithReplica(replica).Upsert(t.name, rows...); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit(ctx)
}

// Begin starts a transaction scoped to this table's DB (it may stage
// rows into any table); provided here so table-centric code reads
// naturally.
func (t *Table) Begin(ctx context.Context) (*Tx, error) { return t.db.Begin(ctx) }

// CreateIndex builds a secondary index online — on every shard — and
// persists it in the table's index catalog.
func (t *Table) CreateIndex(spec SecondaryIndexSpec) error { return t.eng.CreateIndex(spec) }

// Indexes returns the declared spec of every secondary index.
func (t *Table) Indexes() []SecondaryIndexSpec { return t.eng.SecondarySpecs() }

// Start launches the table's two background goroutines, both ticking
// every groomEvery: the propagation owner grooms, post-grooms once
// postGroomEvery has elapsed, then evolves the indexes and reclaims
// consumed blocks; the index maintainer merges runs and adjusts the SSD
// cache. DBs opened with DBConfig.GroomEvery set have already started
// them.
func (t *Table) Start(groomEvery, postGroomEvery time.Duration) {
	t.eng.Start(groomEvery, postGroomEvery)
}

// Groom runs one groom operation (a lockstep round across the shards).
func (t *Table) Groom() error { return t.eng.Groom() }

// PostGroom runs one post-groom operation on every shard.
func (t *Table) PostGroom() error { return t.eng.PostGroom() }

// SyncIndex applies pending index evolve operations on every shard.
func (t *Table) SyncIndex() error { return t.eng.SyncIndex() }

// MaintainOnce runs one index maintenance pass (one merge attempt per
// level of each zone, for every index) on every shard; it reports
// whether any merged. The index maintainer started by Start does this
// every tick.
func (t *Table) MaintainOnce() (bool, error) { return t.eng.MaintainOnce() }

// LiveCount reports committed-but-ungroomed records across all shards.
func (t *Table) LiveCount() int { return t.eng.LiveCount() }

// SnapshotTS returns the table's default read point: the newest groomed
// snapshot every shard can serve.
func (t *Table) SnapshotTS() TS { return t.eng.SnapshotTS() }

// Durability returns the table's commit-log configuration as created or
// recovered from the catalog (defaults resolved).
func (t *Table) Durability() DurabilityOptions { return t.catalogEntry.Durability }

// WALStatus reports each shard's commit-log state: durable segments and
// bytes, the groom watermark, and the largest commit sequence assigned.
// The distance between watermark and max sequence is the replay tail a
// crash would rebuild into the live zone.
func (t *Table) WALStatus() []WALStatus { return t.eng.WALStatus() }
