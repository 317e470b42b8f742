package client

import (
	"context"
	"encoding/json"
	"fmt"

	"umzi"
	"umzi/internal/front"
	"umzi/internal/wildfire"
	"umzi/internal/wire"
)

// TableInfo is one catalog entry as reported by the server.
type TableInfo struct {
	Def    umzi.TableDef
	Index  umzi.IndexSpec
	Shards int
}

// CreateTable creates a table on the server with the options a local
// umzi.DB.CreateTable takes. The server refuses ScanParallelism and
// BlockCacheBytes, which budget its own CPU and memory.
func (db *DB) CreateTable(ctx context.Context, def umzi.TableDef, opts umzi.TableOptions) (*Table, error) {
	payload, err := json.Marshal(front.CreateTableRequest{Def: def, TableOptions: opts})
	if err != nil {
		return nil, err
	}
	err = db.withConn(ctx, func(cn *conn) error {
		_, err := cn.roundTrip(ctx, wire.FrameCreateTable, payload, wire.FrameDone, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	return db.Table(def.Name), nil
}

// Catalog lists the server's tables.
func (db *DB) Catalog(ctx context.Context) ([]TableInfo, error) {
	var resp []byte
	err := db.withConn(ctx, func(cn *conn) (err error) {
		resp, err = cn.roundTrip(ctx, wire.FrameCatalog, nil, wire.FrameCatalogData, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	var cr wildfire.CatalogResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		return nil, fmt.Errorf("client: decoding catalog: %w", err)
	}
	out := make([]TableInfo, 0, len(cr.Tables))
	for _, t := range cr.Tables {
		out = append(out, TableInfo(t))
	}
	return out, nil
}

// Begin starts a transaction over the network: the same umzi.Tx the
// in-process DB returns. Rows stage in the client and ship to the
// server in one Commit frame, which the server validates and applies
// under write admission control as one in-process transaction. That
// commits table by table, so a failure mid-commit can leave a
// committed prefix; a malformed row fails the commit before any table
// commits. A server refusal under write pressure surfaces as
// *AdmissionError.
func (db *DB) Begin(ctx context.Context) (*umzi.Tx, error) {
	db.mu.Lock()
	closed := db.closed
	db.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("client: db closed")
	}
	return front.Begin(ctx, txSink{db})
}

// txSink is the network transport under umzi.Tx: Stage does nothing,
// since the server validates rows at Commit, and Commit ships the
// staged rows in one Commit frame.
type txSink struct{ db *DB }

func (txSink) Stage(string, []umzi.Row) error { return nil }

func (s txSink) Commit(ctx context.Context, staged []front.Staged) error {
	// The frame's leading uvarint is the replica slot, always 0: a shard
	// has one committed log.
	payload := wire.AppendUvarint(nil, 0)
	payload = wire.AppendUvarint(payload, uint64(len(staged)))
	for _, st := range staged {
		payload = wire.AppendString(payload, st.Table)
		payload = wire.AppendUvarint(payload, uint64(len(st.Rows)))
		for _, row := range st.Rows {
			var err error
			if payload, err = wire.AppendRow(payload, row); err != nil {
				return err
			}
		}
	}
	return s.db.withConn(ctx, func(cn *conn) error {
		_, err := cn.roundTrip(ctx, wire.FrameCommit, payload, wire.FrameDone, false)
		return err
	})
}

// Upsert runs one auto-committed transaction staging the rows,
// mirroring umzi.Table.Upsert.
func (t *Table) Upsert(ctx context.Context, rows ...umzi.Row) error {
	tx, err := t.db.Begin(ctx)
	if err != nil {
		return err
	}
	if err := tx.Upsert(t.name, rows...); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit(ctx)
}
