package main

import (
	"context"

	"umzi"
	"umzi/client"
)

// The driver reaches the system only through the surface ROADMAP item 2
// keeps: umzi.DB / Table / Tx / Query / Rows in process, and the client
// package over the wire. Both expose the same fluent builder on
// different concrete types, so the five query shapes are written once,
// generically, and instantiated for each.

// rowsIter is the part of umzi.Rows and client.Rows the driver uses.
type rowsIter interface {
	Next() bool
	Values() []umzi.Value
	Err() error
	Close() error
}

// txLike is the part of umzi.Tx and client.Tx the driver uses.
type txLike interface {
	Upsert(table string, rows ...umzi.Row) error
	Commit(ctx context.Context) error
}

// queryBuilder is the fluent builder shared by umzi.Query and
// client.Query.
type queryBuilder[Q any, R rowsIter] interface {
	Where(umzi.Expr) Q
	Select(...string) Q
	OrderBy(...string) Q
	GroupBy(...string) Q
	Aggs(...umzi.Agg) Q
	At(umzi.TS) Q
	Run(context.Context) (R, error)
}

// target is one way of reaching the table: in process or over TCP.
type target interface {
	// layer names the spans of this target's query surface ("umzi" or
	// "client").
	layer() string
	begin(ctx context.Context) (txLike, error)
	// get is the full-primary-key point lookup.
	get(ctx context.Context, device, msg int64) (rowsIter, error)
	// rangeScan reads msg in [lo, hi] of one device, ordered, from the
	// primary index alone (msg and the included value column).
	rangeScan(ctx context.Context, device, lo, hi int64) (rowsIter, error)
	// agg is GROUP BY region COUNT/SUM over rows written at or after
	// cutoff; at pins the snapshot (0: newest groomed).
	agg(ctx context.Context, cutoff int64, at umzi.TS) (rowsIter, error)
	// count is the ungrouped COUNT/SUM; cutoff < 0 drops the predicate,
	// which makes it the unfiltered scan no synopsis can shorten.
	count(ctx context.Context, cutoff int64, at umzi.TS) (rowsIter, error)
	// stream is the 3-column projection of the whole table.
	stream(ctx context.Context, at umzi.TS) (rowsIter, error)
}

type queries[Q queryBuilder[Q, R], R rowsIter] struct {
	name     string
	newQuery func() Q
	beginTx  func(ctx context.Context) (txLike, error)
}

func (t queries[Q, R]) layer() string { return t.name }

func (t queries[Q, R]) begin(ctx context.Context) (txLike, error) { return t.beginTx(ctx) }

func (t queries[Q, R]) get(ctx context.Context, device, msg int64) (rowsIter, error) {
	return t.newQuery().Where(umzi.And(umzi.Eq("device", umzi.I64(device)), umzi.Eq("msg", umzi.I64(msg)))).Run(ctx)
}

func (t queries[Q, R]) rangeScan(ctx context.Context, device, lo, hi int64) (rowsIter, error) {
	return t.newQuery().
		Where(umzi.And(umzi.Eq("device", umzi.I64(device)), umzi.Ge("msg", umzi.I64(lo)), umzi.Le("msg", umzi.I64(hi)))).
		Select("msg", "value").OrderBy("msg").Run(ctx)
}

var countSum = []umzi.Agg{{Func: umzi.AggCount}, {Func: umzi.AggSum, Col: "value"}}

func (t queries[Q, R]) agg(ctx context.Context, cutoff int64, at umzi.TS) (rowsIter, error) {
	return t.newQuery().Where(umzi.Ge("ts", umzi.I64(cutoff))).GroupBy("region").Aggs(countSum...).At(at).Run(ctx)
}

func (t queries[Q, R]) count(ctx context.Context, cutoff int64, at umzi.TS) (rowsIter, error) {
	q := t.newQuery()
	if cutoff >= 0 {
		q = q.Where(umzi.Ge("ts", umzi.I64(cutoff)))
	}
	return q.Aggs(countSum...).At(at).Run(ctx)
}

func (t queries[Q, R]) stream(ctx context.Context, at umzi.TS) (rowsIter, error) {
	return t.newQuery().Select("device", "msg", "value").At(at).Run(ctx)
}

func localTarget(db *umzi.DB, tbl *umzi.Table) target {
	return queries[*umzi.Query, *umzi.Rows]{
		name:     "umzi",
		newQuery: tbl.Query,
		beginTx:  func(ctx context.Context) (txLike, error) { return db.Begin(ctx) },
	}
}

func remoteTarget(cdb *client.DB) target {
	tbl := cdb.Table(tableName)
	return queries[*client.Query, *client.Rows]{
		name:     "client",
		newQuery: tbl.Query,
		beginTx:  func(ctx context.Context) (txLike, error) { return cdb.Begin(ctx) },
	}
}
