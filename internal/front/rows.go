package front

import (
	"context"
	"errors"
	"fmt"
	"math"

	"umzi/internal/keyenc"
)

// ErrRange is umzi.ErrRange: Scan would have to narrow a numeric value
// that does not fit the destination.
var ErrRange = errors.New("value out of range")

// RowSource is one transport's stream of result rows, which Rows wraps:
// the engine's cursor (*wildfire.Cursor) in process, the network
// client's frame reader remotely. Next returning false ends the stream
// and releases the source; Close releases it early and is idempotent.
type RowSource interface {
	Next() bool
	Value() []keyenc.Value
	Err() error
	Close() error
}

// Rows is the streaming result umzi.Rows documents for users: one type
// over both transports, wrapping a transport's RowSource and applying
// the cancel rule in Next.
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
// with. A transport's run function returns it.
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
// slice is only valid until the next call to Next; once the stream has
// ended or been closed, Values returns nil on either transport.
func (r *Rows) Values() []keyenc.Value {
	if r.closed {
		return nil
	}
	return r.src.Value()
}

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
	row := r.Values()
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

func scanValue(v keyenc.Value, dest any) error {
	switch d := dest.(type) {
	case *keyenc.Value:
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
