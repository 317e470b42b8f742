package client

import (
	"context"
	"encoding/json"
	"fmt"

	"umzi"
	"umzi/internal/wildfire"
	"umzi/internal/wire"
)

// TableOptions mirror umzi.TableOptions for remote table creation; the
// zero value means defaults, exactly as locally.
type TableOptions struct {
	// Shards is the hash-shard count; 0 means unsharded.
	Shards int
	// Index overrides the primary Umzi index layout.
	Index umzi.IndexSpec
	// Secondaries declares secondary indexes built at creation.
	Secondaries []umzi.SecondaryIndexSpec
	// Replicas is the multi-master replica count; 0 means 1.
	Replicas int
	// Partitions is the groomed-zone partition count; 0 means default.
	Partitions int
	// Parallelism bounds the table's scatter-gather pool; 0 means one per shard.
	Parallelism int
	// Durability configures the per-shard commit log.
	Durability umzi.DurabilityOptions
}

// TableInfo is one catalog entry as reported by the server.
type TableInfo struct {
	Def    umzi.TableDef
	Index  umzi.IndexSpec
	Shards int
}

// CreateTable creates a table on the server.
func (db *DB) CreateTable(ctx context.Context, def umzi.TableDef, opts TableOptions) (*Table, error) {
	payload, err := json.Marshal(wildfire.CreateTableRequest{
		Def:         def,
		Index:       opts.Index,
		Secondaries: opts.Secondaries,
		Shards:      opts.Shards,
		Replicas:    opts.Replicas,
		Partitions:  opts.Partitions,
		Parallelism: opts.Parallelism,
		Durability:  opts.Durability,
	})
	if err != nil {
		return nil, err
	}
	err = db.withConn(ctx, func(cn *conn) error {
		return cn.roundTrip(ctx, wire.FrameCreateTable, payload, false)
	})
	if err != nil {
		return nil, err
	}
	return db.Table(def.Name), nil
}

// Catalog lists the server's tables.
func (db *DB) Catalog(ctx context.Context) ([]TableInfo, error) {
	var out []TableInfo
	err := db.withConn(ctx, func(cn *conn) error {
		stop := cn.watch(ctx)
		err := func() error {
			if err := cn.write(wire.FrameCatalog, nil); err != nil {
				cn.broken.Store(true)
				return errRetryable{err}
			}
			typ, resp, err := wire.ReadFrame(cn.br)
			if err != nil {
				cn.broken.Store(true)
				return errRetryable{err}
			}
			switch typ {
			case wire.FrameCatalogData:
				var cr wildfire.CatalogResponse
				if err := json.Unmarshal(resp, &cr); err != nil {
					return fmt.Errorf("client: decoding catalog: %w", err)
				}
				out = out[:0]
				for _, t := range cr.Tables {
					out = append(out, TableInfo{Def: t.Def, Index: t.Index, Shards: t.Shards})
				}
				return nil
			case wire.FrameDone:
				return doneError(doneParts(resp))
			default:
				cn.broken.Store(true)
				return fmt.Errorf("client: unexpected frame 0x%02x awaiting catalog", typ)
			}
		}()
		return stop(err)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Tx is a client-side transaction: rows stage locally and ship to the
// server in one Commit frame, which the server applies under write
// admission control as one umzi.Tx. That commits table by table, so a
// failure mid-commit can leave a committed prefix.
type Tx struct {
	db      *DB
	replica int
	order   []string
	staged  map[string][]umzi.Row
	done    bool
}

// Begin starts a transaction. Staging is purely local; Commit talks to
// the server.
func (db *DB) Begin(ctx context.Context) (*Tx, error) {
	db.mu.Lock()
	closed := db.closed
	db.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("client: db closed")
	}
	_ = ctx
	return &Tx{db: db, staged: make(map[string][]umzi.Row)}, nil
}

// WithReplica routes the commit through a chosen multi-master replica.
func (tx *Tx) WithReplica(replica int) *Tx {
	tx.replica = replica
	return tx
}

// Upsert stages rows into the named table.
func (tx *Tx) Upsert(table string, rows ...umzi.Row) error {
	if tx.done {
		return fmt.Errorf("client: transaction already finished")
	}
	if _, ok := tx.staged[table]; !ok {
		tx.order = append(tx.order, table)
	}
	tx.staged[table] = append(tx.staged[table], rows...)
	return nil
}

// Abort discards the staged rows; nothing has reached the server.
func (tx *Tx) Abort() { tx.done = true; tx.staged = nil }

// Commit ships the staged rows. A server refusal under write pressure
// surfaces as *AdmissionError.
func (tx *Tx) Commit(ctx context.Context) error {
	if tx.done {
		return fmt.Errorf("client: transaction already finished")
	}
	tx.done = true
	payload := wire.AppendUvarint(nil, uint64(tx.replica))
	payload = wire.AppendUvarint(payload, uint64(len(tx.order)))
	for _, table := range tx.order {
		rows := tx.staged[table]
		payload = wire.AppendString(payload, table)
		payload = wire.AppendUvarint(payload, uint64(len(rows)))
		for _, row := range rows {
			var err error
			if payload, err = wire.AppendRow(payload, row); err != nil {
				return err
			}
		}
	}
	tx.staged = nil
	return tx.db.withConn(ctx, func(cn *conn) error {
		return cn.roundTrip(ctx, wire.FrameCommit, payload, false)
	})
}

// Upsert runs one auto-committed transaction staging the rows on
// replica 0, mirroring umzi.Table.Upsert.
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
