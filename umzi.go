// Package umzi is a from-scratch Go implementation of Umzi, the unified
// multi-version, multi-zone LSM-like index of IBM's Wildfire HTAP system
// ("Umzi: Unified Multi-Zone Indexing for Large-Scale HTAP", Luo et al.,
// EDBT 2019), together with the engine substrate it lives in.
//
// As in Wildfire, applications reach the index only through the
// database. OpenDB returns a *DB: a multi-table catalog over one shared
// store and SSD cache, each table a *Table handle over N>=1 hash shards,
// with transactional ingest (DB.Begin / Table.Upsert), one
// declarative query surface (Table.Query, a fluent builder compiled into
// point-get / index-scan / index-only / executor plans) and streaming
// Rows results. Every read is multi-version and takes a context.Context;
// cancellation propagates into per-shard scatter-gather workers, k-way
// merges and block fetches. A typical application:
//
//	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
//	tbl, err := db.CreateTable(umzi.TableDef{
//	    Name: "orders",
//	    Columns: []umzi.TableColumn{
//	        {Name: "customer", Kind: umzi.KindInt64},
//	        {Name: "order", Kind: umzi.KindInt64},
//	        {Name: "total", Kind: umzi.KindFloat64},
//	    },
//	    PrimaryKey: []string{"customer", "order"},
//	    ShardKey:   []string{"customer"},
//	}, umzi.TableOptions{Shards: 8})
//	err = tbl.Upsert(ctx, umzi.Row{umzi.I64(7), umzi.I64(100), umzi.F64(19.99)})
//	rows, err := tbl.Query().
//	    Where(umzi.Eq("customer", umzi.I64(7))).
//	    OrderBy("order").
//	    Run(ctx)
//
// Query, Rows, Tx and TableOptions are one front end over two
// transports: this package runs them in process, and package client
// runs the same types against umzi-server over the network.
//
// See examples/ for complete programs and DESIGN.md for the map from
// paper sections to packages.
package umzi

import (
	"umzi/internal/exec"
	"umzi/internal/front"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
	"umzi/internal/wildfire"
)

// Value model (internal/keyenc).
type (
	// Value is a dynamically typed column value.
	Value = keyenc.Value
	// Kind enumerates value types.
	Kind = keyenc.Kind
)

// Column kinds.
const (
	KindInt64   = keyenc.KindInt64
	KindUint64  = keyenc.KindUint64
	KindFloat64 = keyenc.KindFloat64
	KindBytes   = keyenc.KindBytes
	KindString  = keyenc.KindString
	KindBool    = keyenc.KindBool
)

// I64 returns an int64 value.
func I64(v int64) Value { return keyenc.I64(v) }

// U64 returns a uint64 value.
func U64(v uint64) Value { return keyenc.U64(v) }

// F64 returns a float64 value.
func F64(v float64) Value { return keyenc.F64(v) }

// Str returns a string value.
func Str(v string) Value { return keyenc.Str(v) }

// Raw returns a bytes value (the slice is retained, not copied).
func Raw(v []byte) Value { return keyenc.Raw(v) }

// Bool returns a bool value.
func Bool(v bool) Value { return keyenc.B(v) }

// TS is a multi-version timestamp; beginTS composes a groom-cycle part
// and a commit-sequence part (§2.1).
type TS = types.TS

// MaxTS reads the newest version of everything.
const MaxTS = types.MaxTS

// Storage hierarchy (internal/storage).
type (
	// ObjectStore is the append-only shared-storage abstraction.
	ObjectStore = storage.ObjectStore
	// MemStore is an in-memory ObjectStore with a latency model.
	MemStore = storage.MemStore
	// FSStore is a directory-backed ObjectStore.
	FSStore = storage.FSStore
	// SSDCache is the local SSD block cache (§6.2).
	SSDCache = storage.SSDCache
	// LatencyModel simulates per-tier access cost.
	LatencyModel = storage.LatencyModel
)

// NewMemStore returns an in-memory shared-storage simulator.
func NewMemStore(lat LatencyModel) *MemStore { return storage.NewMemStore(lat) }

// NewFSStore opens a directory-backed shared store (durable; used by the
// recovery example).
func NewFSStore(dir string, lat LatencyModel) (*FSStore, error) {
	return storage.NewFSStore(dir, lat)
}

// NewSSDCache returns a capacity-bounded SSD block cache. capacity 0
// means unbounded; negative disables caching.
func NewSSDCache(capacity int64, lat LatencyModel) *SSDCache {
	return storage.NewSSDCache(capacity, lat)
}

// Table model (internal/wildfire): the types the DB layer's DDL, ingest
// and status calls speak.
type (
	// TableDef defines a table: columns, primary key, sharding key,
	// partition key.
	TableDef = wildfire.TableDef
	// IndexSpec selects the index key layout over a table.
	IndexSpec = wildfire.IndexSpec
	// SecondaryIndexSpec declares a named secondary index over arbitrary
	// table columns, maintained through the whole
	// groom/post-groom/evolve pipeline alongside the primary. Declare in
	// TableOptions.Secondaries, or build online with Table.CreateIndex;
	// force one with Query.Via, or let the planner pick it when a
	// query's predicate or order matches.
	SecondaryIndexSpec = wildfire.SecondaryIndexSpec
	// Row is one table row.
	Row = wildfire.Row
	// TableColumn describes one table column (alias of the columnar
	// package's column descriptor).
	TableColumn = wildfire.TableColumn
	// DurabilityOptions configure a table's per-shard commit log:
	// sync policy (per-commit group commit, background interval, or
	// off), target segment size and the group-commit window. Commits
	// append to the log before they are acknowledged; recovery replays
	// the log tail above the groom watermark, so with SyncPerCommit a
	// crash loses no acknowledged writes.
	DurabilityOptions = wildfire.DurabilityOptions
	// SyncPolicy selects when a commit becomes durable.
	SyncPolicy = wildfire.SyncPolicy
	// WALStatus is a snapshot of one shard's commit-log state.
	WALStatus = wildfire.WALStatus
	// BlockCacheStats is a point-in-time snapshot of a table's bounded
	// decoded-block cache (Table.BlockCacheStats): occupancy vs budget
	// and hit/miss/eviction/dedup traffic.
	BlockCacheStats = wildfire.BlockCacheStats
)

// Commit-log sync policies.
const (
	// SyncDefault resolves to SyncPerCommit.
	SyncDefault = wildfire.SyncDefault
	// SyncPerCommit acknowledges a commit only after its log records
	// are durable; concurrent committers share one segment write.
	SyncPerCommit = wildfire.SyncPerCommit
	// SyncInterval makes commits durable in the background every
	// DurabilityOptions.SyncInterval (bounded loss window).
	SyncInterval = wildfire.SyncInterval
	// SyncOff buffers the log in memory until a segment fills; crash
	// durability then starts at the last groom or segment flush.
	SyncOff = wildfire.SyncOff
)

// Query vocabulary (internal/exec): the predicates and aggregates the
// query builder takes. Aggregate and unordered queries evaluate
// block-at-a-time over the columnar zones, with block skipping by
// min/max synopses and partial-aggregate merging across shards:
//
//	rows, err := tbl.Query().
//	    Where(umzi.Ge("amount", umzi.F64(100))).
//	    GroupBy("region").
//	    Aggs(umzi.Agg{Func: umzi.AggCount}, umzi.Agg{Func: umzi.AggSum, Col: "amount"}).
//	    IncludeLive().
//	    Run(ctx)
type (
	// Expr is a predicate over table rows; build with Eq/Ne/Lt/Le/Gt/Ge
	// and combine with And/Or.
	Expr = exec.Expr
	// CmpOp is a comparison operator (for building predicates with Cmp).
	CmpOp = exec.CmpOp
	// Agg requests one aggregate (function, column, output name).
	Agg = exec.Agg
	// AggFunc enumerates the aggregate functions.
	AggFunc = exec.AggFunc
)

// Aggregate functions.
const (
	AggCount = exec.Count
	AggSum   = exec.Sum
	AggMin   = exec.Min
	AggMax   = exec.Max
	AggAvg   = exec.Avg
)

// Comparison operators (for Cmp; the shorthands below cover common use).
const (
	OpEq = exec.OpEq
	OpNe = exec.OpNe
	OpLt = exec.OpLt
	OpLe = exec.OpLe
	OpGt = exec.OpGt
	OpGe = exec.OpGe
)

// Cmp builds the comparison <column> <op> <constant>.
func Cmp(col string, op CmpOp, v Value) Expr { return exec.Cmp(col, op, v) }

// Eq builds column == value.
func Eq(col string, v Value) Expr { return exec.Eq(col, v) }

// Ne builds column != value.
func Ne(col string, v Value) Expr { return exec.Ne(col, v) }

// Lt builds column < value.
func Lt(col string, v Value) Expr { return exec.Lt(col, v) }

// Le builds column <= value.
func Le(col string, v Value) Expr { return exec.Le(col, v) }

// Gt builds column > value.
func Gt(col string, v Value) Expr { return exec.Gt(col, v) }

// Ge builds column >= value.
func Ge(col string, v Value) Expr { return exec.Ge(col, v) }

// And builds the conjunction of the operands.
func And(kids ...Expr) Expr { return exec.And(kids...) }

// Or builds the disjunction of the operands.
func Or(kids ...Expr) Expr { return exec.Or(kids...) }

// Query is the one query surface of a Table: a fluent builder compiled
// at Run into the cheapest access path that serves it — point get,
// index scan, index-only scan, or a pushed-down executor plan — by the
// planner in internal/wildfire: the predicate goes into Where, and the
// planner makes the access-path decision.
//
//	rows, err := tbl.Query().
//	    Where(umzi.Eq("customer", umzi.I64(7))).
//	    Select("order", "total").
//	    OrderBy("order").
//	    Limit(100).
//	    Run(ctx)
//
// The builder methods (Where, Select, OrderBy, GroupBy, Aggs, Limit, At,
// Via, IncludeLive, NoIndex, Explain) return the receiver; Run streams
// the result, and All, One and Count materialize it. Builders are
// single-use and not safe for concurrent use. The network client's
// Table.Query returns the same builder, shipping the spec to
// umzi-server.
type Query = front.Query

// Rows is a streaming query result, styled after database/sql.Rows:
//
//	rows, err := tbl.Query().Where(...).OrderBy("seq").Run(ctx)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var seq int64
//	    var amount float64
//	    if err := rows.Scan(&seq, &amount); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Its methods are Columns, Next, Values, Scan, Err and Close; one Rows
// type serves both transports. Index-served queries (point gets,
// OrderBy/Via scans) are pulled lazily: per-shard scan workers,
// the k-way merge, verification and data-block fetches advance only as
// Next is called, and Close stops them — the workers are cancelled and
// waited out, so an early Close leaks nothing and abandons the remaining
// work. Executor plans (aggregates, unordered row queries) necessarily
// complete their per-shard scans inside Run — partial aggregates cannot
// finalize early — and stream only the emission. Over the network, an
// early Close sends a Cancel frame and drains the stream to its end, so
// the connection goes back to the pool.
//
// Cancellation: Next checks the Run context without blocking before it
// reads a row. Once that context is done, Next returns false, Err
// returns the context's error, and the source is closed (remotely:
// Cancel and drain). A stream that was fully read — Next already
// returned false — before the context ended keeps its outcome: Err
// stays nil on a clean end.
type Rows = front.Rows

// ErrRange reports that Rows.Scan would have to narrow a numeric value
// that does not fit the destination (uint64 into *int64/*int, or int64
// into *int on 32-bit platforms). Test with errors.Is.
var ErrRange = front.ErrRange
