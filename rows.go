package umzi

import (
	"context"
	"errors"
	"fmt"
	"math"

	"umzi/internal/keyenc"
)

// ErrRange reports that Scan would have to narrow a numeric value that
// does not fit the destination (uint64 into *int64/*int, or int64 into
// *int on 32-bit platforms). Test with errors.Is.
var ErrRange = errors.New("value out of range")

// RowSource is one transport's stream of result rows, which Rows wraps:
// the engine's cursor (*wildfire.Cursor) in process, the network
// client's frame reader remotely. Next returning false ends the stream
// and releases the source; Close releases it early and is idempotent.
type RowSource interface {
	Next() bool
	Value() []Value
	Err() error
	Close() error
}

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
// One Rows type serves both transports. Index-served queries (point
// gets, OrderBy/Via scans) are pulled lazily: per-shard scan workers,
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
type Rows struct {
	cols []string
	src  RowSource
	ctx  context.Context
	// done is the Run context's Done channel, captured once; nil (never
	// ready) for a context that cannot be cancelled.
	done   <-chan struct{}
	err    error // the context's error, once the cancel rule fired
	closed bool
}

// NewRows wraps a transport's row stream as the query result; cols
// names the output columns and ctx is the context the query was run
// with. A transport's RunSpec returns it.
func NewRows(ctx context.Context, cols []string, src RowSource) *Rows {
	return &Rows{cols: cols, src: src, ctx: ctx, done: ctx.Done()}
}

// Columns returns the result's column names, in row order.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reporting whether one is available.
// After Next returns false, Err distinguishes exhaustion from failure
// (including context cancellation).
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	select {
	case <-r.done:
		r.closed = true
		r.err = r.ctx.Err()
		r.src.Close()
		return false
	default:
	}
	if r.src.Next() {
		return true
	}
	// The source released itself at the end of its stream.
	r.closed = true
	return false
}

// Values returns the current row's values, aligned with Columns. The
// slice is only valid until the next call to Next.
func (r *Rows) Values() []Value { return r.src.Value() }

// Err returns the error that terminated the stream, if any; a
// cancelled context surfaces as its ctx.Err().
func (r *Rows) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.src.Err()
}

// Close releases the result: scatter-gather workers are cancelled and
// waited out and the query-gate epoch released, or, remotely, the
// stream is cancelled and drained. Idempotent; safe (and a no-op) after
// Next returned false.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.src.Close()
}

// Scan copies the current row into dest, one pointer per column, in
// column order. Supported destinations: *int64, *int, *uint64,
// *float64, *string, *[]byte, *bool and *Value. Numeric aggregates scan
// into *float64 regardless of input column kind; string and bytes
// values interconvert.
func (r *Rows) Scan(dest ...any) error {
	row := r.src.Value()
	if len(dest) != len(row) {
		return fmt.Errorf("umzi: Scan got %d destinations for %d columns", len(dest), len(row))
	}
	for i, d := range dest {
		if err := scanValue(row[i], d); err != nil {
			return fmt.Errorf("umzi: Scan column %q: %w", r.cols[i], err)
		}
	}
	return nil
}

func scanValue(v Value, dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
		return nil
	case *int64:
		if v.Kind() == keyenc.KindInt64 {
			*d = v.Int()
			return nil
		}
		if v.Kind() == keyenc.KindUint64 {
			u := v.Uint()
			if u > math.MaxInt64 {
				return fmt.Errorf("uint64 value %d overflows int64: %w", u, ErrRange)
			}
			*d = int64(u)
			return nil
		}
	case *int:
		if v.Kind() == keyenc.KindInt64 {
			n := v.Int()
			if int64(int(n)) != n { // 32-bit platforms
				return fmt.Errorf("int64 value %d overflows int: %w", n, ErrRange)
			}
			*d = int(n)
			return nil
		}
		if v.Kind() == keyenc.KindUint64 {
			u := v.Uint()
			if u > math.MaxInt {
				return fmt.Errorf("uint64 value %d overflows int: %w", u, ErrRange)
			}
			*d = int(u)
			return nil
		}
	case *uint64:
		if v.Kind() == keyenc.KindUint64 {
			*d = v.Uint()
			return nil
		}
	case *float64:
		switch v.Kind() {
		case keyenc.KindFloat64:
			*d = v.Float()
			return nil
		case keyenc.KindInt64:
			*d = float64(v.Int())
			return nil
		case keyenc.KindUint64:
			*d = float64(v.Uint())
			return nil
		}
	case *string:
		if v.Kind() == keyenc.KindString || v.Kind() == keyenc.KindBytes {
			*d = string(v.Bytes())
			return nil
		}
	case *[]byte:
		if v.Kind() == keyenc.KindString || v.Kind() == keyenc.KindBytes {
			*d = append([]byte(nil), v.Bytes()...)
			return nil
		}
	case *bool:
		if v.Kind() == keyenc.KindBool {
			*d = v.Bool()
			return nil
		}
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return fmt.Errorf("cannot scan %v value into %T", v.Kind(), dest)
}
