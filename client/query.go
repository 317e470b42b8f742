package client

import (
	"context"
	"errors"
	"time"

	"umzi"
	"umzi/internal/front"
	"umzi/internal/wildfire"
	"umzi/internal/wire"
)

// Table is a handle on one remote table.
type Table struct {
	db   *DB
	name string
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Query is umzi.Query, the one query builder: Table.Query returns it,
// running over this package's transport. The alias exists only because
// benchmarks/target.go names client.Query; it goes when remoteTarget
// there names umzi.Query instead.
type Query = umzi.Query

// Rows is umzi.Rows, the one streaming result type. Like Query, the
// alias exists only for benchmarks/target.go and goes with the same
// remoteTarget edit.
type Rows = umzi.Rows

// Query starts a fluent query against the remote table: the root
// package's builder, whose Run ships the compiled spec to the server.
// A query that carries an Explain trace is refused at Run.
func (t *Table) Query() *Query { return front.NewQuery(t.runSpec) }

// runSpec is the network transport under the builder: it ships the
// spec to the server and returns the streamed result, which owns the
// connection until the stream ends or is closed.
func (t *Table) runSpec(ctx context.Context, spec wildfire.QuerySpec) (*Rows, error) {
	if spec.Trace != nil {
		// The spec codec does not carry traces: a remote Explain would
		// return one that silently stays empty.
		return nil, errors.New("client: Explain traces are process-local and do not travel; explain the query in process")
	}
	specBytes, err := wildfire.MarshalQuerySpec(spec)
	if err != nil {
		return nil, err
	}
	var timeoutNS uint64
	if dl, ok := ctx.Deadline(); ok {
		d := time.Until(dl)
		if d <= 0 {
			return nil, context.DeadlineExceeded
		}
		timeoutNS = uint64(d)
	}
	payload := wire.AppendU64(nil, timeoutNS)
	payload = wire.AppendString(payload, t.name)
	payload = wire.AppendUvarint(payload, uint64(len(specBytes)))
	payload = append(payload, specBytes...)

	// The connection is held for the stream's lifetime; the stream
	// releases it.
	var rows *Rows
	err = t.db.withConn(ctx, func(cn *conn) error {
		resp, err := cn.roundTrip(ctx, wire.FrameQuery, payload, wire.FrameRowHeader, true)
		if err != nil {
			return err
		}
		d := wire.NewDec(resp)
		cols := d.Strings()
		if err := d.Err(); err != nil {
			cn.broken.Store(true)
			return err
		}
		rows = front.NewRows(ctx, cols, newStream(t.db, cn, ctx))
		// Pin the conn: withConn leaves its release to the stream.
		return errPinned
	})
	if err == errPinned {
		return rows, nil
	}
	return nil, err
}
