// Package front is the front end both transports share: Query, Rows,
// Tx and TableOptions, which the root package re-exports with their
// user-facing docs. A transport plugs in at three points: the run
// function a Query is built over (NewQuery), the RowSource its Rows read
// (NewRows), and the TxSink a Tx stages and commits through (Begin).
package front

import "umzi/internal/wildfire"

// TableOptions is umzi.TableOptions: how one table is created. Its JSON
// form is flat in a remote CreateTable request and in each table's
// record of the DB catalog.
type TableOptions struct {
	// Index is the primary Umzi index layout. Zero value derives a
	// default: the table's sharding key as equality columns and the
	// remaining primary-key columns as sort columns.
	Index wildfire.IndexSpec `json:",omitempty"`
	// Secondaries declares secondary indexes built with the table.
	Secondaries []wildfire.SecondaryIndexSpec `json:",omitempty"`
	// Shards is the number of hash partitions (0 means 1). A 1-shard
	// table stores its objects under "tbl/<name>/" with no shard segment
	// and never scatters a query.
	Shards int `json:",omitempty"`
	// Partitions is the number of partition-key buckets per shard.
	Partitions int `json:",omitempty"`
	// Parallelism bounds the table's scatter-gather pool (default: one
	// worker per shard).
	Parallelism int `json:",omitempty"`
	// ScanParallelism bounds each shard's intra-shard scan worker pool
	// (0 derives a default from GOMAXPROCS; 1 scans sequentially).
	ScanParallelism int `json:",omitempty"`
	// BlockCacheBytes budgets the table's decoded-block cache, shared
	// across its shards (<=0 inherits DBConfig.BlockCacheBytes, then the
	// engine default).
	BlockCacheBytes int64 `json:",omitempty"`
	// Durability configures the table's per-shard commit logs; it is
	// persisted in the DB catalog, so a reopened store recovers each
	// table's un-groomed log tail with the same policy it was written
	// under. The zero value inherits DBConfig.Durability.
	Durability wildfire.DurabilityOptions
}

// CreateTableRequest is the JSON payload of a CreateTable frame. The
// embedded options keep their field names flat in the one object.
type CreateTableRequest struct {
	Def wildfire.TableDef
	TableOptions
}
