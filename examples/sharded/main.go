// Sharded ingest and streaming scatter-gather queries: the
// "large-scale" half of the paper's title. A table created with
// TableOptions{Shards: N} hash-partitions by its sharding key across N
// engines, each with its own Umzi index instance (§2.1, §3) — and the
// query surface does not change: the same fluent builder pins to one
// shard or fans out to all of them, k-way merging the per-shard
// ordered streams.
//
// This program ingests a million-row ledger across 8 shards (tune with
// -rows / -shards), then demonstrates:
//
//   - lockstep grooming: one groom round advances every shard's
//     snapshot clock together, so one timestamp cuts all shards
//     consistently;
//   - an ordered scatter-gather scan streamed through a Rows cursor,
//     with global id order restored by the k-way merge;
//   - early close: a limited read of a huge ordered scan cancels the
//     per-shard workers instead of materializing the table;
//   - routed point gets through the same builder.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"umzi"
)

func main() {
	rows := flag.Int("rows", 1_000_000, "total rows to ingest")
	shards := flag.Int("shards", 8, "number of table shards")
	flag.Parse()
	if *rows < 1 || *shards < 1 {
		log.Fatalf("-rows (%d) and -shards (%d) must be at least 1", *rows, *shards)
	}
	ctx := context.Background()

	db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	ledger, err := db.CreateTable(umzi.TableDef{
		Name: "ledger",
		Columns: []umzi.TableColumn{
			{Name: "id", Kind: umzi.KindInt64},
			{Name: "amount", Kind: umzi.KindInt64},
		},
		PrimaryKey: []string{"id"},
		ShardKey:   []string{"id"},
	}, umzi.TableOptions{
		Shards: *shards,
		Index: umzi.IndexSpec{
			// No equality columns: a pure range index over id, so every
			// ordered scan is a global scatter-gather over all shards.
			Sort:     []string{"id"},
			Included: []string{"amount"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest in batches, grooming every ~rows/8 records the way the
	// groomer daemon would every second.
	fmt.Printf("ingesting %d rows across %d shards...\n", *rows, *shards)
	start := time.Now()
	groomEvery := *rows / 8
	if groomEvery == 0 {
		groomEvery = 1
	}
	const batch = 512
	buf := make([]umzi.Row, 0, batch)
	flush := func() {
		if len(buf) == 0 {
			return
		}
		if err := ledger.Upsert(ctx, buf...); err != nil {
			log.Fatal(err)
		}
		buf = buf[:0]
	}
	for i := 0; i < *rows; i++ {
		id := int64(i)
		buf = append(buf, umzi.Row{umzi.I64(id), umzi.I64(id % 997)})
		if len(buf) == batch {
			flush()
		}
		if (i+1)%groomEvery == 0 {
			flush()
			if err := ledger.Groom(); err != nil {
				log.Fatal(err)
			}
		}
	}
	flush()
	if err := ledger.Groom(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("ingested and groomed in %v (%.0f rows/s)\n\n", elapsed.Round(time.Millisecond),
		float64(*rows)/elapsed.Seconds())
	fmt.Printf("snapshot %v across %d shards (lockstep grooming)\n", ledger.SnapshotTS(), ledger.NumShards())

	// Ordered scatter-gather scan: ids 1000..1019 in global order even
	// though consecutive ids live on different shards.
	got, err := ledger.Query().
		Where(umzi.And(umzi.Ge("id", umzi.I64(1000)), umzi.Le("id", umzi.I64(1019)))).
		OrderBy("id").
		All(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nordered scan ids [1000,1019] -> %d rows:\n  ", len(got))
	for _, r := range got {
		fmt.Printf("%d ", r[0].Int())
	}
	fmt.Println()

	// A full ordered scan, streamed and verified: all shards in
	// parallel, k-way merged, pulled row by row (the index covers the
	// query, so no data block is touched).
	start = time.Now()
	stream, err := ledger.Query().OrderBy("id").Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	count, prev := 0, int64(-1)
	for stream.Next() {
		id := stream.Values()[0].Int()
		if id <= prev {
			log.Fatalf("merge order violated at row %d: %d after %d", count, id, prev)
		}
		prev = id
		count++
	}
	if err := stream.Err(); err != nil {
		log.Fatal(err)
	}
	stream.Close()
	fmt.Printf("\nfull ordered stream: %d rows in %v\n", count, time.Since(start).Round(time.Millisecond))
	fmt.Println("global id order verified")

	// Early close: read 10 rows of the same full scan and stop. The
	// cursor cancels the per-shard workers — the other ~1M rows are
	// never merged, fetched or materialized.
	start = time.Now()
	stream, err = ledger.Query().OrderBy("id").Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10 && stream.Next(); i++ {
	}
	stream.Close()
	fmt.Printf("first 10 rows of the same scan via early close: %v\n", time.Since(start).Round(time.Microsecond))

	// Declaring the limit is better still: it is pushed into every
	// shard's index walk, so no shard even scans past its first 10
	// entries.
	start = time.Now()
	if _, err := ledger.Query().OrderBy("id").Limit(10).All(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same 10 rows with Limit(10) pushed into the shards: %v\n", time.Since(start).Round(time.Microsecond))

	// Point gets route to the owning shard through the same builder.
	row, found, err := ledger.Query().
		Where(umzi.Eq("id", umzi.I64(424242%int64(*rows)))).
		One(ctx)
	if err != nil || !found {
		log.Fatal("point lookup failed: ", err)
	}
	fmt.Printf("\npoint lookup id %d -> amount %d\n", row[0].Int(), row[1].Int())
}
