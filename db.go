package umzi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"umzi/internal/obs"
	"umzi/internal/storage"
	"umzi/internal/wildfire"
)

// The unified front end. Wildfire is a multi-table HTAP database; DB is
// its handle: one shared store and SSD cache serving any number of
// tables, each an N>=1-shard *Table whose query surface is the fluent
// builder (Table.Query). The table set is persisted in a sequenced
// catalog under db/catalog/, so OpenDB on an existing store recovers
// every table — definitions, shard counts, primary and secondary
// indexes — in one call, the multi-table generalization of the paper's
// §5.5 recovery story.

// DBConfig configures a DB.
type DBConfig struct {
	// Store is the shared storage backend all tables live in (required).
	Store ObjectStore
	// Cache is the local SSD block cache shared by every table; nil
	// disables caching.
	Cache *SSDCache
	// GroomEvery / PostGroomEvery, when positive, auto-start the two
	// background loops of every table the DB opens or creates (see
	// Table.Start): both tick every GroomEvery, and the propagation
	// owner post-grooms once PostGroomEvery has elapsed — the paper's
	// 1s / 10min split, scaled to taste. Zero leaves propagation manual
	// (Table.Start, Table.Groom, ...).
	GroomEvery     time.Duration
	PostGroomEvery time.Duration
	// Durability is the default commit-log configuration for tables
	// created without their own TableOptions.Durability. The zero value
	// is full per-commit durability with group commit. Recovered tables
	// reopen with the durability options persisted in the catalog.
	Durability DurabilityOptions
	// BlockCacheBytes is the default per-table decoded-block cache
	// budget for tables created without their own
	// TableOptions.BlockCacheBytes (<=0 selects the engine default).
	BlockCacheBytes int64
}

// TableOptions configures one table at creation.
type TableOptions struct {
	// Shards is the number of hash partitions (0 means 1). A 1-shard
	// table stores its objects under "tbl/<name>/" with no shard segment
	// and never scatters a query.
	Shards int
	// Index is the primary Umzi index layout. Zero value derives a
	// default: the table's sharding key as equality columns and the
	// remaining primary-key columns as sort columns.
	Index IndexSpec
	// Secondaries declares secondary indexes built with the table.
	Secondaries []SecondaryIndexSpec
	// Replicas is the number of multi-master replicas per shard.
	Replicas int
	// Partitions is the number of partition-key buckets per shard.
	Partitions int
	// Parallelism bounds the table's scatter-gather pool (default: one
	// worker per shard).
	Parallelism int
	// ScanParallelism bounds each shard's intra-shard scan worker pool
	// (0 derives a default from GOMAXPROCS; 1 scans sequentially).
	ScanParallelism int
	// BlockCacheBytes budgets the table's decoded-block cache, shared
	// across its shards (<=0 inherits DBConfig.BlockCacheBytes, then the
	// engine default).
	BlockCacheBytes int64
	// IndexTuning forwards merge-policy knobs to every Umzi instance.
	IndexTuning Config
	// Durability configures the table's per-shard commit logs; it is
	// persisted in the DB catalog, so a reopened store recovers each
	// table's un-groomed log tail with the same policy it was written
	// under. The zero value inherits DBConfig.Durability.
	Durability DurabilityOptions
}

// DB is one Wildfire-style multi-table database over a shared store.
type DB struct {
	store           ObjectStore
	cache           *SSDCache
	groomEvery      time.Duration
	postGroomEvery  time.Duration
	durability      DurabilityOptions
	blockCacheBytes int64
	// obs is the DB-wide metric registry every table's engines register
	// into; Metrics/MetricsHandler expose it.
	obs *obs.Registry

	mu         sync.Mutex
	tables     map[string]*Table
	order      []string
	catalogSeq uint64
	closed     bool
}

// OpenDB opens (or initializes) a database on a shared store: the
// persisted catalog is read and every table in it is recovered — its
// engines, index sets and counters rebuilt from storage alone.
func OpenDB(cfg DBConfig) (*DB, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("umzi: DBConfig.Store is required")
	}
	db := &DB{
		store:           cfg.Store,
		cache:           cfg.Cache,
		groomEvery:      cfg.GroomEvery,
		postGroomEvery:  cfg.PostGroomEvery,
		durability:      cfg.Durability,
		blockCacheBytes: cfg.BlockCacheBytes,
		obs:             obs.NewRegistry(),
		tables:          make(map[string]*Table),
	}
	db.registerStorageGauges()
	entries, seq, err := loadDBCatalog(cfg.Store)
	if err != nil {
		return nil, err
	}
	db.catalogSeq = seq
	for _, e := range entries {
		tbl, err := db.openTable(e, nil)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("umzi: recovering table %s: %w", e.Def.Name, err)
		}
		db.tables[e.Def.Name] = tbl
		db.order = append(db.order, e.Def.Name)
	}
	return db, nil
}

// CreateTable creates a table, persists it in the DB catalog and
// returns its handle. The name must be new to this DB.
func (db *DB) CreateTable(def TableDef, opts TableOptions) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("umzi: db closed")
	}
	if _, ok := db.tables[def.Name]; ok {
		return nil, fmt.Errorf("umzi: table %q already exists", def.Name)
	}
	if err := def.Validate(); err != nil {
		return nil, err
	}
	entry := dbCatalogEntry{
		Def:             def,
		Index:           opts.Index,
		Shards:          opts.Shards,
		Replicas:        opts.Replicas,
		Partitions:      opts.Partitions,
		Parallelism:     opts.Parallelism,
		ScanParallelism: opts.ScanParallelism,
		BlockCacheBytes: opts.BlockCacheBytes,
		Durability:      opts.Durability,
	}
	if specZero(entry.Index) {
		entry.Index = defaultIndexSpec(def)
	}
	if entry.Durability == (DurabilityOptions{}) {
		entry.Durability = db.durability
	}
	if entry.BlockCacheBytes <= 0 {
		entry.BlockCacheBytes = db.blockCacheBytes
	}
	entry.tuning = opts.IndexTuning
	// Secondaries ride through the engine config only at creation — the
	// engine validates the whole declaration (primary spec, every
	// secondary, duplicate names) before its first store write, so invalid
	// DDL leaves nothing behind. The per-table index catalog owns them
	// from here (CreateIndex included), so the DB catalog needs just the
	// table-level shape.
	tbl, err := db.openTable(entry, opts.Secondaries)
	if err != nil {
		return nil, err
	}
	db.tables[def.Name] = tbl
	db.order = append(db.order, def.Name)
	if err := db.writeCatalogLocked(); err != nil {
		delete(db.tables, def.Name)
		db.order = db.order[:len(db.order)-1]
		tbl.eng.Close()
		return nil, err
	}
	return tbl, nil
}

// openTable opens one table's engine from a catalog entry: every table
// is an N>=1 ShardedEngine (catalog Shards 0 or 1 is the 1-shard case).
// secondaries are the indexes declared with a new table; a recovered
// table's come from its own index catalog.
func (db *DB) openTable(e dbCatalogEntry, secondaries []SecondaryIndexSpec) (*Table, error) {
	shards := e.Shards
	if shards < 1 {
		shards = 1
	}
	eng, err := wildfire.NewShardedEngine(wildfire.ShardedConfig{
		Table:           e.Def,
		Index:           e.Index,
		Secondaries:     secondaries,
		Shards:          shards,
		Parallelism:     e.Parallelism,
		ScanParallelism: e.ScanParallelism,
		BlockCacheBytes: e.BlockCacheBytes,
		Store:           db.store,
		Cache:           db.cache,
		Replicas:        e.Replicas,
		Partitions:      e.Partitions,
		IndexTuning:     e.tuning,
		Durability:      e.Durability,
		Obs:             db.obs,
	})
	if err != nil {
		return nil, err
	}
	if db.groomEvery > 0 {
		post := db.postGroomEvery
		if post <= 0 {
			post = 5 * db.groomEvery
		}
		eng.Start(db.groomEvery, post)
	}
	return &Table{db: db, name: e.Def.Name, eng: eng, catalogEntry: e}, nil
}

// Table returns the handle of an open table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	tbl, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("umzi: no table %q (have %v)", name, db.order)
	}
	return tbl, nil
}

// Tables lists the open tables in creation order.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]string(nil), db.order...)
}

// Close stops every table's background loops and closes their engines.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var first error
	for _, name := range db.order {
		if err := db.tables[name].eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// specZero reports whether an index spec was left at its zero value.
func specZero(s IndexSpec) bool {
	return len(s.Equality) == 0 && len(s.Sort) == 0 && len(s.Included) == 0 && s.HashBits == 0
}

// defaultIndexSpec derives the default primary index layout: the
// sharding key as equality columns (point lookups and pinned scans hash
// on it) and the remaining primary-key columns as sort columns.
func defaultIndexSpec(def TableDef) IndexSpec {
	spec := IndexSpec{Equality: append([]string(nil), def.ShardKey...)}
	inEq := map[string]bool{}
	for _, c := range spec.Equality {
		inEq[c] = true
	}
	for _, c := range def.PrimaryKey {
		if !inEq[c] {
			spec.Sort = append(spec.Sort, c)
		}
	}
	return spec
}

// ---- Multi-table transactions ----------------------------------------

// Tx stages upserts across any tables of the DB; Commit routes them to
// their tables (and, within a table, their shards). Like Wildfire's
// multi-master shard commits, cross-table commits are not atomic: a
// failure or cancellation mid-commit can leave a committed prefix.
type Tx struct {
	db      *DB
	replica int
	staged  map[*Table][]Row
	order   []*Table
	done    bool
}

// Begin starts a transaction. The context is consulted immediately and
// again at Commit; a transaction carries no locks, so there is nothing
// to time out in between.
func (db *DB) Begin(ctx context.Context) (*Tx, error) {
	db.mu.Lock()
	closed := db.closed
	db.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("umzi: db closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Tx{db: db, staged: make(map[*Table][]Row)}, nil
}

// WithReplica routes the transaction's commits through the given
// multi-master replica ordinal (default 0).
func (tx *Tx) WithReplica(replica int) *Tx {
	tx.replica = replica
	return tx
}

// Upsert stages copies of rows into one table; validation happens
// eagerly.
func (tx *Tx) Upsert(table string, rows ...Row) error {
	if tx.done {
		return fmt.Errorf("umzi: transaction already finished")
	}
	tbl, err := tx.db.Table(table)
	if err != nil {
		return err
	}
	def := tbl.Def()
	for _, r := range rows {
		if err := wildfire.ValidateRow(def, r); err != nil {
			return err
		}
		if _, ok := tx.staged[tbl]; !ok {
			tx.order = append(tx.order, tbl)
		}
		tx.staged[tbl] = append(tx.staged[tbl], slices.Clone(r))
	}
	return nil
}

// Commit hands the staged rows to their tables' engines table by table
// (and shard by shard within a table). The replica ordinal is checked
// against every table before any commits; the context is checked before
// each table's commit.
func (tx *Tx) Commit(ctx context.Context) error {
	if tx.done {
		return fmt.Errorf("umzi: transaction already finished")
	}
	tx.done = true
	for _, tbl := range tx.order {
		if n := max(tbl.catalogEntry.Replicas, 1); tx.replica < 0 || tx.replica >= n {
			return fmt.Errorf("umzi: table %s: replica %d out of range (%d replicas)", tbl.name, tx.replica, n)
		}
	}
	for _, tbl := range tx.order {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("umzi: commit interrupted before table %s (earlier tables are durable): %w", tbl.name, err)
		}
		if err := tbl.eng.Commit(ctx, tx.replica, tx.staged[tbl]); err != nil {
			return err
		}
	}
	tx.staged = nil
	return nil
}

// Abort discards the staged rows.
func (tx *Tx) Abort() {
	tx.done = true
	tx.staged = nil
}

// ---- Persisted DB catalog --------------------------------------------
//
// Sequenced records under db/catalog/ (storage.LoadRecord,
// storage.WriteRecord), like the per-table index catalog. The record is
// JSON: it is tiny, written once per DDL, and umzi-inspect prints it for
// humans.

// dbCatalogEntry is one table of the catalog.
type dbCatalogEntry struct {
	Def             TableDef
	Index           IndexSpec
	Shards          int   `json:",omitempty"`
	Replicas        int   `json:",omitempty"`
	Partitions      int   `json:",omitempty"`
	Parallelism     int   `json:",omitempty"`
	ScanParallelism int   `json:",omitempty"`
	BlockCacheBytes int64 `json:",omitempty"`
	// Durability is the table's commit-log configuration; persisting it
	// means OpenDB replays every table's un-groomed log tail under the
	// policy it was written with, with no per-table setup.
	Durability DurabilityOptions

	// tuning is carried in memory only (and never marshaled): core.Config
	// holds live handles and tuning is a process-local concern.
	tuning Config
}

// dbCatalogRecord is the stored record.
type dbCatalogRecord struct {
	Magic  string
	Tables []dbCatalogEntry
}

const dbCatalogMagic = "UMZIDB1"

// DBCatalogPrefix is where the multi-table catalog lives in a store;
// exported for inspection tooling.
const DBCatalogPrefix = "db/catalog/"

// loadDBCatalog reads the newest valid catalog record and the newest
// listed record sequence, returning (nil, 0, nil) for a store that never
// had one.
func loadDBCatalog(store ObjectStore) ([]dbCatalogEntry, uint64, error) {
	rec, seq, ok, err := storage.LoadRecord(store, DBCatalogPrefix, func(data []byte) (rec dbCatalogRecord, err error) {
		if err = json.Unmarshal(data, &rec); err == nil && rec.Magic != dbCatalogMagic {
			err = errors.New("umzi: bad db catalog record")
		}
		return rec, err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("umzi: loading db catalog: %w", err)
	}
	if !ok && seq > 0 {
		return nil, seq, fmt.Errorf("umzi: store has db catalog objects but no readable record")
	}
	return rec.Tables, seq, nil
}

// writeCatalogLocked persists the current table set as a fresh catalog
// record. Callers hold db.mu.
func (db *DB) writeCatalogLocked() error {
	rec := dbCatalogRecord{Magic: dbCatalogMagic}
	for _, name := range db.order {
		rec.Tables = append(rec.Tables, db.tables[name].entry())
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	db.catalogSeq++
	// A failed prune leaves only superseded records; the next write retries it.
	_, err = storage.WriteRecord(db.store, DBCatalogPrefix, db.catalogSeq, data)
	return err
}

// InspectDBCatalog reads a store's multi-table catalog for tooling:
// table definitions, shard counts and primary index specs, without
// opening any engine.
func InspectDBCatalog(store ObjectStore) ([]DBTableInfo, error) {
	entries, _, err := loadDBCatalog(store)
	if err != nil {
		return nil, err
	}
	out := make([]DBTableInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, DBTableInfo{
			Def:             e.Def,
			Index:           e.Index,
			Shards:          max(e.Shards, 1),
			ScanParallelism: e.ScanParallelism,
			BlockCacheBytes: e.BlockCacheBytes,
		})
	}
	return out, nil
}

// DBTableInfo is one table of a store's catalog, as seen by tooling.
type DBTableInfo struct {
	Def    TableDef
	Index  IndexSpec
	Shards int
	// ScanParallelism is the configured per-shard scan worker bound
	// (0: derived from GOMAXPROCS at open).
	ScanParallelism int
	// BlockCacheBytes is the configured decoded-block cache budget
	// (0: the engine default applies at open).
	BlockCacheBytes int64
}

// ShardTableName returns the storage-level table name of one shard of a
// sharded table (shard 0 of a 1-shard table is the table itself); it is
// what per-table storage prefixes ("tbl/<name>/...") are derived from.
func ShardTableName(table string, shards, shard int) string {
	return wildfire.ShardTableName(table, shards, shard)
}
