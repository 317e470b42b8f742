package front

import (
	"context"
	"errors"
	"slices"

	"umzi/internal/wildfire"
)

// Tx is umzi.Tx: it copies rows at Upsert and hands them to its TxSink
// at Commit.
type Tx struct {
	sink   TxSink
	staged []Staged
	done   bool
}

// Staged is one table's rows in a transaction, in staging order.
type Staged struct {
	Table string
	Rows  []wildfire.Row
}

// TxSink is the transport under a Tx. Stage checks rows bound for one
// table before the Tx copies them (an error stages none); Commit applies
// the staged tables in order.
type TxSink interface {
	Stage(table string, rows []wildfire.Row) error
	Commit(ctx context.Context, staged []Staged) error
}

var errFinished = errors.New("umzi: transaction already finished")

// Begin starts a transaction over sink, refusing a done context.
func Begin(ctx context.Context, sink TxSink) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Tx{sink: sink}, nil
}

// Upsert stages copies of rows into one table once the sink's Stage
// accepts them all.
func (tx *Tx) Upsert(table string, rows ...wildfire.Row) error {
	if tx.done {
		return errFinished
	}
	if err := tx.sink.Stage(table, rows); err != nil {
		return err
	}
	i := slices.IndexFunc(tx.staged, func(s Staged) bool { return s.Table == table })
	if i < 0 {
		i = len(tx.staged)
		tx.staged = append(tx.staged, Staged{Table: table})
	}
	st := &tx.staged[i]
	st.Rows = slices.Grow(st.Rows, len(rows))
	for _, r := range rows {
		st.Rows = append(st.Rows, slices.Clone(r))
	}
	return nil
}

// Commit hands the staged rows to the sink, at most once.
func (tx *Tx) Commit(ctx context.Context) error {
	if tx.done {
		return errFinished
	}
	tx.done = true
	staged := tx.staged
	tx.staged = nil
	return tx.sink.Commit(ctx, staged)
}

// Abort discards the staged rows.
func (tx *Tx) Abort() {
	tx.done = true
	tx.staged = nil
}
