// Command umzi-inspect dumps the storage layout of a whole database, a
// table or an Umzi index from a filesystem-backed shared-storage
// directory: the multi-table DB catalog, per-table index catalogs, run
// headers (level, zone, groomed-block range, entry counts, synopsis),
// meta records, and data-block inventories. It is the debugging
// companion to the recovery procedure of §5.5 — everything it prints is
// reconstructed from shared storage alone.
//
// Usage:
//
//	umzi-inspect -store /path/to/store               # the DB catalog: every table
//	umzi-inspect -store /path/to/store -table orders # one table's whole index set
//	umzi-inspect -store /path/to/store -runs idx     # decode run headers under prefix
//	umzi-inspect -store /path/to/store -objects      # raw object listing
//	umzi-inspect -store /path/to/store -metrics      # open the DB, print its metrics
//	umzi-inspect -store /path/to/store -metrics -table orders  # one table (and its shards)
//
// The default mode reads the DB catalog written by umzi.OpenDB and
// lists every table — name, shard count, index set and per-zone record
// counts. The -table mode reads one table's persisted index catalog and
// prints every index with its declared definition, evolve watermark
// (IndexedPSN, max covered groomed block) and per-zone run counts; for
// sharded tables created through the DB, per-shard tables are named
// <table>/shard-NNN.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"umzi"
	"umzi/internal/columnar"
	"umzi/internal/core"
	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
	"umzi/internal/wal"
	"umzi/internal/wildfire"
)

func main() {
	dir := flag.String("store", "", "filesystem shared-storage directory")
	runPrefix := flag.String("runs", "", "decode run headers under this object prefix")
	table := flag.String("table", "", "print the index set of this table")
	objects := flag.Bool("objects", false, "raw object listing instead of the DB catalog")
	metrics := flag.Bool("metrics", false, "open the DB and print its metric registry (combine with -table to filter)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: umzi-inspect -store <dir> [-table <name>] [-runs <prefix>] [-objects] [-metrics]")
		os.Exit(2)
	}
	store, err := storage.NewFSStore(*dir, storage.LatencyModel{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *metrics {
		if err := inspectMetrics(store, *table); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *table != "" {
		if err := inspectTable(store, *table); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if !*objects && *runPrefix == "" {
		done, err := inspectDB(store)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if done {
			return
		}
		// No DB catalog in this store: fall through to the raw listing.
	}

	names, err := store.List(*runPrefix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(names) == 0 {
		fmt.Println("no objects found")
		return
	}

	fmt.Printf("%d objects under %q:\n\n", len(names), *runPrefix)
	for _, name := range names {
		size, _ := store.Size(name)
		fmt.Printf("%-60s %8d bytes", name, size)
		if h, err := run.LoadHeader(store, name); err == nil {
			// Every run listed here is persisted: merged groomed runs
			// (levels 1 and up of the groomed zone) live in the engine's
			// memory only and never reach the store.
			magic, _ := store.GetRange(name, size-8, 8)
			perEntry := 0.0
			if h.Entries > 0 {
				perEntry = float64(size) / float64(h.Entries)
			}
			fmt.Printf("  [run %s: zone=%s level=%d persisted blocks=%s entries=%d datablocks=%d psn=%d header=%dB %.1fB/entry",
				magic, h.Meta.Zone, h.Meta.Level, h.Meta.Blocks, h.Entries, len(h.BlockIndex), h.Meta.PSN,
				size-int64(h.DataEnd)-run.FooterSize, perEntry)
			if len(h.Meta.Ancestors) > 0 {
				fmt.Printf(" ancestors=%d", len(h.Meta.Ancestors))
			}
			fmt.Print("]")
			if verboseSynopsis(h) != "" {
				fmt.Printf("\n%s", verboseSynopsis(h))
			}
		}
		fmt.Println()
	}
}

// inspectMetrics opens the DB from the store (recovering every table)
// and renders its metric registry as an aligned table, optionally
// filtered to one table and its shards. Gauges reflect the durable
// state just recovered — log segments and bytes, watermark lag, the
// replayed live zone; counters reflect activity of this inspecting
// process only (recovery replays, no queries), since counters live in
// engine memory, not in storage.
func inspectMetrics(store storage.ObjectStore, tableFilter string) error {
	db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Println("(gauges reflect the recovered durable state; counters reflect this inspection process only)")
	fmt.Print(db.MetricsText(tableFilter))
	printReadPathSummary(db, tableFilter)
	return nil
}

// printReadPathSummary condenses the read-path metric families into one
// block per table: decoded-block cache occupancy against its byte
// budget and the hit ratio.
func printReadPathSummary(db *umzi.DB, tableFilter string) {
	fmt.Println("\nread path:")
	for _, name := range db.Tables() {
		if tableFilter != "" && name != tableFilter {
			continue
		}
		tbl, err := db.Table(name)
		if err != nil {
			continue
		}
		st := tbl.BlockCacheStats()
		fmt.Printf("  %-12s block cache %d / %d bytes (%.1f%% of budget), %d blocks resident\n",
			name, st.Bytes, st.Budget, 100*float64(st.Bytes)/float64(st.Budget), st.Blocks)
		lookups := st.Hits + st.Misses
		ratio := 0.0
		if lookups > 0 {
			ratio = 100 * float64(st.Hits) / float64(lookups)
		}
		fmt.Printf("  %-12s %d hits / %d misses (%.1f%% hit ratio), %d evictions, %d dedup'd fetches\n",
			"", st.Hits, st.Misses, ratio, st.Evictions, st.Dedups)
	}
}

// inspectDB reads the multi-table DB catalog and lists every table:
// name, shard count, index set and per-zone record counts summed over
// the shards' data blocks. Returns done=false when the store holds no
// DB catalog (the caller falls back to the raw object listing).
func inspectDB(store storage.ObjectStore) (bool, error) {
	tables, err := umzi.InspectDBCatalog(store)
	if err != nil {
		return false, err
	}
	if len(tables) == 0 {
		return false, nil
	}
	fmt.Printf("db catalog: %d tables\n", len(tables))
	for _, tbl := range tables {
		fmt.Printf("\n%s (%d shards)\n", tbl.Def.Name, tbl.Shards)
		var cols []string
		for _, c := range tbl.Def.Columns {
			cols = append(cols, fmt.Sprintf("%s:%v", c.Name, c.Kind))
		}
		fmt.Printf("  columns:     %s\n", strings.Join(cols, ", "))
		fmt.Printf("  primary key: %v  shard key: %v", tbl.Def.PrimaryKey, tbl.Def.ShardKey)
		if tbl.Def.PartitionKey != "" {
			fmt.Printf("  partition key: %s", tbl.Def.PartitionKey)
		}
		fmt.Println()
		fmt.Printf("  primary index: equality=%v sort=%v included=%v\n",
			tbl.Index.Equality, tbl.Index.Sort, tbl.Index.Included)

		// Read-path configuration as persisted in the catalog; zeros mean
		// the engine derives the value at open (GOMAXPROCS workers, the
		// default cache budget).
		cacheDesc := "default"
		if tbl.BlockCacheBytes > 0 {
			cacheDesc = fmt.Sprintf("%d bytes", tbl.BlockCacheBytes)
		}
		scanDesc := "auto (GOMAXPROCS/shards)"
		if tbl.ScanParallelism > 0 {
			scanDesc = fmt.Sprintf("%d workers/shard", tbl.ScanParallelism)
		}
		fmt.Printf("  read path:     block cache budget %s, scan parallelism %s\n", cacheDesc, scanDesc)

		// Index set and record counts, summed across the shards.
		var groomedRows, postRows uint64
		var groomedBlocks, postBlocks int
		indexNames := map[string]bool{}
		for shard := 0; shard < tbl.Shards; shard++ {
			name := umzi.ShardTableName(tbl.Def.Name, tbl.Shards, shard)
			catalog, _, err := wildfire.LoadIndexCatalog(store, name)
			if err != nil {
				return false, err
			}
			for _, e := range catalog {
				if e.Name != "" {
					indexNames[e.Name] = true
				}
			}
			for _, zone := range []string{"groomed", "post"} {
				blocks, err := store.List("tbl/" + name + "/" + zone + "/")
				if err != nil {
					return false, err
				}
				for _, b := range blocks {
					data, err := store.Get(b)
					if err != nil {
						return false, err
					}
					blk, err := columnar.Unmarshal(data)
					if err != nil {
						continue // interrupted write
					}
					if zone == "groomed" {
						groomedRows += uint64(blk.NumRows())
						groomedBlocks++
					} else {
						postRows += uint64(blk.NumRows())
						postBlocks++
					}
				}
			}
		}
		var secondaries []string
		for n := range indexNames {
			secondaries = append(secondaries, n)
		}
		sort.Strings(secondaries)
		if len(secondaries) > 0 {
			fmt.Printf("  secondaries:   %s\n", strings.Join(secondaries, ", "))
		}
		fmt.Printf("  record versions: %d groomed (%d blocks, pending post-groom), %d post-groomed (%d blocks)\n",
			groomedRows, groomedBlocks, postRows, postBlocks)

		// Commit-log summary across the shards: durable segments, the
		// groom watermark vs the largest logged sequence, and the replay
		// tail a crash would rebuild into the live zone.
		var segCount, tailRows int
		var segBytes int64
		for shard := 0; shard < tbl.Shards; shard++ {
			name := umzi.ShardTableName(tbl.Def.Name, tbl.Shards, shard)
			w, err := walSummary(store, name)
			if err != nil {
				return false, err
			}
			segCount += w.segments
			segBytes += w.bytes
			tailRows += w.tailRows
		}
		fmt.Printf("  commit log:    %d segments (%d bytes), replay tail %d rows across %d shards\n",
			segCount, segBytes, tailRows, tbl.Shards)
	}
	fmt.Println("\n(use -table <name> for one table's full index set; sharded tables are <name>/shard-NNN)")
	return true, nil
}

// inspectTable prints the full index set of one table: the catalog's
// declared definitions plus, per index, the evolve watermark and the
// per-zone run inventory — everything reconstructed from shared storage
// alone, like the recovery procedure of §5.5.
func inspectTable(store storage.ObjectStore, table string) error {
	catalog, _, err := wildfire.LoadIndexCatalog(store, table)
	if err != nil {
		return err
	}
	if catalog == nil {
		return fmt.Errorf("table %q has no index catalog in this store", table)
	}
	fmt.Printf("table %s: %d indexes\n", table, len(catalog))

	// Commit-log view of this shard: segment inventory, groom watermark
	// vs the largest logged sequence, and the replay tail.
	w, err := walSummary(store, table)
	if err != nil {
		return err
	}
	fmt.Printf("\ncommit log (%s/)\n", wildfire.WALStoragePrefix(table))
	if w.hasMark {
		fmt.Printf("  groom watermark: seq %d (groom cycle %d)\n", w.mark, w.markCycle)
	} else {
		fmt.Printf("  groom watermark: none persisted (nothing groomed since the log began)\n")
	}
	fmt.Printf("  segments:        %d (%d bytes)\n", w.segments, w.bytes)
	fmt.Printf("  max logged seq:  %d\n", w.maxSeq)
	fmt.Printf("  replay tail:     %d rows (rebuilt into the live zone on reopen)\n", w.tailRows)
	// Data-block inventory: physical encodings and the on-store
	// footprint of each block against the plain layout of the same rows.
	for _, zone := range []string{"groomed", "post"} {
		prefix := fmt.Sprintf("tbl/%s/%s/", table, zone)
		blocks, err := store.List(prefix)
		if err != nil {
			return err
		}
		if len(blocks) == 0 {
			continue
		}
		fmt.Printf("\n%s data blocks (%s)\n", zone, prefix)
		var totEnc, totPlain int
		for _, bname := range blocks {
			data, err := store.Get(bname)
			if err != nil {
				return err
			}
			blk, err := columnar.Unmarshal(data)
			if err != nil {
				fmt.Printf("  %-24s unreadable (interrupted write?): %v\n", strings.TrimPrefix(bname, prefix), err)
				continue
			}
			plain := blk.PlainSize()
			totEnc += len(data)
			totPlain += plain
			fmt.Printf("  %-24s %6d rows  %8d bytes on store (plain layout %d, %.1f%%)\n",
				strings.TrimPrefix(bname, prefix), blk.NumRows(), len(data), plain,
				100*float64(len(data))/float64(plain))
			var cols []string
			for c := 0; c < blk.Schema().NumCols(); c++ {
				cols = append(cols, fmt.Sprintf("%s=%v", blk.Schema().Col(c).Name, blk.ColumnEncoding(c)))
			}
			fmt.Printf("    %s\n", strings.Join(cols, " "))
		}
		if totPlain > 0 {
			fmt.Printf("  total: %d bytes encoded vs %d plain layout (%.1f%%)\n",
				totEnc, totPlain, 100*float64(totEnc)/float64(totPlain))
		}
	}

	for _, entry := range catalog {
		name := entry.Name
		label := name
		if label == "" {
			label = "(primary)"
		}
		prefix := wildfire.IndexStoragePrefix(table, name)
		fmt.Printf("\n%s\n", label)
		fmt.Printf("  definition: equality=%v sort=%v included=%v hashbits=%d\n",
			entry.Spec.Equality, entry.Spec.Sort, entry.Spec.Included, entry.Spec.HashBits)
		if name != "" {
			fmt.Printf("  (secondaries append the missing primary-key columns to the sort key as a uniquifier)\n")
		}

		maxCovered, psn, ok, err := core.InspectMeta(store, prefix)
		if err != nil {
			return err
		}
		if ok {
			fmt.Printf("  watermark:  IndexedPSN=%d maxCoveredGroomedBlock=%d\n", psn, maxCovered)
		} else {
			fmt.Printf("  watermark:  no meta record (no evolve applied yet)\n")
		}

		names, err := store.List(prefix + "/z")
		if err != nil {
			return err
		}
		counts := map[types.ZoneID]int{}
		entriesPerZone := map[types.ZoneID]uint64{}
		for _, n := range names {
			h, err := run.LoadHeader(store, n)
			if err != nil {
				continue // meta records and interrupted writes
			}
			counts[h.Meta.Zone]++
			entriesPerZone[h.Meta.Zone] += h.Entries
		}
		fmt.Printf("  runs:       groomed=%d (%d entries), post-groomed=%d (%d entries)\n",
			counts[types.ZoneGroomed], entriesPerZone[types.ZoneGroomed],
			counts[types.ZonePostGroomed], entriesPerZone[types.ZonePostGroomed])
	}
	return nil
}

// walView summarizes one table shard's commit log from storage alone.
type walView struct {
	segments  int
	bytes     int64
	mark      uint64
	markCycle uint64
	hasMark   bool
	maxSeq    uint64
	tailRows  int
}

func walSummary(store storage.ObjectStore, table string) (walView, error) {
	var v walView
	mark, cycle, _, ok, err := wildfire.LoadWALMark(store, table)
	if err != nil {
		return v, err
	}
	v.mark, v.markCycle, v.hasMark = mark, cycle, ok
	v.maxSeq = mark
	segs, err := wal.Inspect(store, wildfire.WALStoragePrefix(table))
	if err != nil {
		return v, err
	}
	for _, s := range segs {
		v.segments++
		v.bytes += s.Bytes
		if s.Last > v.maxSeq {
			v.maxSeq = s.Last
		}
	}
	v.tailRows, err = wal.TailRowsIn(store, segs, mark)
	return v, err
}

func verboseSynopsis(h *run.Header) string {
	var b strings.Builder
	for i := range h.SynMin {
		if h.SynMin[i] == nil {
			continue
		}
		fmt.Fprintf(&b, "    key col %d synopsis: min=%x max=%x\n", i, h.SynMin[i], h.SynMax[i])
	}
	return strings.TrimRight(b.String(), "\n")
}
