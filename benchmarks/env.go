package main

import (
	"context"
	"net"
	"os"
	"strings"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/server"
)

// env is everything one run of a workload holds open.
type env struct {
	w     workload
	base  umzi.ObjectStore // MemStore or FSStore under the decorator
	store *tracedStore
	ssd   *umzi.SSDCache
	db    *umzi.DB
	tbl   *umzi.Table
	srv   *server.Server
	cdb   *client.DB
	tgt   target // how commits and reads reach the table
	local target // always in process: probes and verification
	dir   string // FSStore root, removed at teardown

	o   *oracle
	gen *batchGen
	// batches are the ingest phase's commits, generated during setup so
	// the measured phase times the system and not the generator.
	batches [][]umzi.Row
	// floor is each key's version once setup has groomed it; a read at
	// the groomed snapshot may never see an older one.
	floor []uint32
}

// markerDevice is one past the last real device: the row the freshness
// prober watches in htap_mixed lives at (markerDevice, 0).
func (e *env) markerDevice() int64 { return e.w.Devices }

// markers is how many marker rows the table holds.
func (e *env) markers() int {
	if e.w.PreloadRows > 0 {
		return 1
	}
	return 0
}

func (e *env) markerRow(commit int) umzi.Row {
	return umzi.Row{
		umzi.I64(e.markerDevice()), umzi.I64(0), umzi.I64(int64(commit)),
		umzi.Str(regionNames[0]), umzi.I64(0), umzi.F64(0),
		umzi.Raw(make([]byte, payloadLen)),
	}
}

// setup builds a fresh environment: store, caches, DB, table, optional
// server and client, seeded inputs, and for htap_mixed the preloaded,
// groomed table with its daemons started.
func setup(ctx context.Context, w workload, seed int64, tmpRoot string, tr *tracer) (_ *env, err error) {
	e := &env{w: w}
	defer func() {
		if err != nil {
			e.teardown()
		}
	}()
	if w.FSStore {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		if e.dir, err = os.MkdirTemp(tmpRoot, w.Name+"-"); err != nil {
			return nil, err
		}
		fs, err := umzi.NewFSStore(e.dir, umzi.LatencyModel{})
		if err != nil {
			return nil, err
		}
		e.base = fs // fsync stays off: the sandbox's disk is not the subject
	} else {
		e.base = umzi.NewMemStore(umzi.LatencyModel{})
	}
	e.store = newTracedStore(e.base, tr)

	rows := int64(w.totalRows())
	blockCache, ssdCap := int64(fitsCacheBytes), int64(0) // SSD capacity 0: unbounded
	if w.BlockCacheFrac > 0 {
		blockCache = int64(w.BlockCacheFrac * float64(rows*estDecodedBytesPerRow))
	}
	if w.SSDCacheFrac > 0 {
		ssdCap = int64(w.SSDCacheFrac * float64(rows*estStoreBytesPerRow))
	}
	e.ssd = umzi.NewSSDCache(ssdCap, umzi.LatencyModel{})
	e.db, err = umzi.OpenDB(umzi.DBConfig{Store: e.store, Cache: e.ssd})
	if err != nil {
		return nil, err
	}
	e.tbl, err = e.db.CreateTable(eventsTable(), umzi.TableOptions{
		Shards:          w.Shards,
		Parallelism:     w.Parallelism,
		ScanParallelism: w.Parallelism,
		Index:           eventsIndex(),
		Secondaries:     []umzi.SecondaryIndexSpec{eventsSecondary()},
		BlockCacheBytes: blockCache,
		Durability:      umzi.DurabilityOptions{SyncPolicy: walPolicy(w)},
	})
	if err != nil {
		return nil, err
	}
	e.local = localTarget(e.db, e.tbl)
	e.tgt = e.local

	if w.Remote {
		e.srv, err = server.New(server.Config{DB: e.db})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go e.srv.Serve(ln) // returns once teardown calls Shutdown, which waits for it
		e.cdb, err = client.Open(client.Config{Addr: ln.Addr().String(), MaxConns: 2})
		if err != nil {
			return nil, err
		}
		e.tgt = remoteTarget(e.cdb)
	}

	e.o = newOracle(seedOf(seed, "rows"), w.Devices, int(rows))
	e.gen = newBatchGen(e.o, seedOf(seed, "batches"), w.UpdateFrac)

	if w.PreloadRows > 0 {
		const batch = 1000
		for done, n := 0, 0; done < w.PreloadRows; n++ {
			size := min(batch, w.PreloadRows-done)
			if err := commitRows(ctx, e.local, e.gen.next(size)); err != nil {
				return nil, err
			}
			done += size
			if n%10 == 9 || done == w.PreloadRows {
				if err := e.tbl.Groom(); err != nil {
					return nil, err
				}
			}
		}
		if err := commitRows(ctx, e.local, []umzi.Row{e.markerRow(0)}); err != nil {
			return nil, err
		}
		if err := e.evolve(); err != nil {
			return nil, err
		}
	}
	e.floor = make([]uint32, e.o.keys.Load())
	for k := range e.floor {
		e.floor[k] = e.o.version[k].Load()
	}
	for i := 0; i < w.Commits; i++ {
		e.batches = append(e.batches, e.gen.next(w.RowsPerCommit))
	}
	if w.Daemons {
		e.tbl.Start(w.GroomInterval, w.PostInterval)
	}
	return e, nil
}

func walPolicy(w workload) umzi.SyncPolicy {
	if w.WALOff {
		return umzi.SyncOff
	}
	return umzi.SyncPerCommit
}

// evolve grooms what is live, post-grooms what is groomed and applies
// the pending index evolves.
func (e *env) evolve() error {
	if err := e.tbl.Groom(); err != nil {
		return err
	}
	if err := e.tbl.PostGroom(); err != nil {
		return err
	}
	return e.tbl.SyncIndex()
}

func commitRows(ctx context.Context, t target, rows []umzi.Row) error {
	tx, err := t.begin(ctx)
	if err != nil {
		return err
	}
	if err := tx.Upsert(tableName, rows...); err != nil {
		return err
	}
	return tx.Commit(ctx)
}

// teardown closes everything setup opened and waits for the goroutines
// behind it; it is safe on a partly built env.
func (e *env) teardown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.cdb != nil {
		keep(e.cdb.Close())
	}
	if e.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(e.srv.Shutdown(sctx))
		cancel()
	}
	if e.db != nil {
		keep(e.db.Close())
	}
	if e.dir != "" {
		keep(os.RemoveAll(e.dir))
	}
	return first
}

// objectStats counts the objects whose names contain part and sums
// their sizes; an object deleted between the listing and its sizing (a
// daemon retiring it) is skipped.
func objectStats(s umzi.ObjectStore, part string) (bytes int64, n int, err error) {
	names, err := s.List("")
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		if !strings.Contains(name, part) {
			continue
		}
		if sz, err := s.Size(name); err == nil {
			bytes += sz
			n++
		}
	}
	return bytes, n, nil
}
