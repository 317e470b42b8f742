// IoT telemetry: the paper's motivating scenario (§2.1, §4.1). Devices
// stream readings into a Wildfire table sharded by device ID and
// partitioned by day. The Umzi index uses deviceID as the equality
// column and the message number as the sort column, so one fluent query
// surface answers "latest reading of device 17" (compiled to a point
// get), "messages 5-9 of device 3" (an ordered index scan) and a
// per-device aggregate (an index-only plan over the included column).
package main

import (
	"context"
	"fmt"
	"log"

	"umzi"
)

func main() {
	ctx := context.Background()

	db, err := umzi.OpenDB(umzi.DBConfig{
		Store: umzi.NewMemStore(umzi.LatencyModel{}),
		Cache: umzi.NewSSDCache(0, umzi.LatencyModel{}),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	telemetry, err := db.CreateTable(umzi.TableDef{
		Name: "telemetry",
		Columns: []umzi.TableColumn{
			{Name: "device", Kind: umzi.KindInt64},
			{Name: "msg", Kind: umzi.KindInt64},
			{Name: "temp", Kind: umzi.KindFloat64},
			{Name: "day", Kind: umzi.KindInt64},
		},
		PrimaryKey:   []string{"device", "msg"},
		ShardKey:     []string{"device"},
		PartitionKey: "day", // analytics-friendly organization (§2.1)
	}, umzi.TableOptions{
		Index: umzi.IndexSpec{
			Equality: []string{"device"},
			Sort:     []string{"msg"},
			Included: []string{"temp"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Stream 3 days of readings from 4 devices; groom once per "second"
	// (here: one groom per day of data to keep the output readable).
	msg := map[int64]int64{}
	for day := int64(0); day < 3; day++ {
		for burst := 0; burst < 5; burst++ {
			for dev := int64(0); dev < 4; dev++ {
				row := umzi.Row{
					umzi.I64(dev),
					umzi.I64(msg[dev]),
					umzi.F64(18.0 + float64(dev) + float64(burst)/10),
					umzi.I64(day),
				}
				if err := telemetry.Upsert(ctx, row); err != nil {
					log.Fatal(err)
				}
				msg[dev]++
			}
		}
		if err := telemetry.Groom(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d groomed: snapshot=%v live=%d\n", day, telemetry.SnapshotTS(), telemetry.LiveCount())
	}

	// OLTP side: the latest reading of device 2 — the full primary key
	// is pinned, so this compiles to a point get.
	row, found, err := telemetry.Query().
		Where(umzi.And(umzi.Eq("device", umzi.I64(2)), umzi.Eq("msg", umzi.I64(msg[2]-1)))).
		One(ctx)
	if err != nil || !found {
		log.Fatal(err, found)
	}
	fmt.Printf("\ndevice 2 latest reading: msg=%d temp=%.1f\n", row[1].Int(), row[2].Float())

	// OLAP side: post-groom re-organizes by day, the indexer evolves,
	// then a covered aggregate runs without touching a data block (the
	// index carries device, msg and temp).
	if err := telemetry.PostGroom(); err != nil {
		log.Fatal(err)
	}
	if err := telemetry.SyncIndex(); err != nil {
		log.Fatal(err)
	}
	agg, err := telemetry.Query().
		Where(umzi.Eq("device", umzi.I64(1))).
		Aggs(
			umzi.Agg{Func: umzi.AggCount, As: "readings"},
			umzi.Agg{Func: umzi.AggAvg, Col: "temp", As: "avg_temp"},
		).
		All(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device 1: %d readings, avg temp %.2f (index-only plan)\n",
		agg[0][0].Int(), agg[0][1].Float())

	// Ordered range scan with bounds: messages 5..9 of device 3,
	// streamed row by row.
	rows, err := telemetry.Query().
		Where(umzi.And(
			umzi.Eq("device", umzi.I64(3)),
			umzi.Ge("msg", umzi.I64(5)),
			umzi.Le("msg", umzi.I64(9)),
		)).
		OrderBy("msg").
		Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device 3 msgs 5..9:\n")
	for rows.Next() {
		r := rows.Values()
		fmt.Printf("  msg=%d temp=%.1f day=%d\n", r[1].Int(), r[2].Float(), r[3].Int())
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()

	// Freshness read: a just-committed reading, visible before grooming
	// through the live-zone union.
	if err := telemetry.Upsert(ctx, umzi.Row{umzi.I64(9), umzi.I64(0), umzi.F64(99.9), umzi.I64(3)}); err != nil {
		log.Fatal(err)
	}
	row, found, err = telemetry.Query().
		Where(umzi.And(umzi.Eq("device", umzi.I64(9)), umzi.Eq("msg", umzi.I64(0)))).
		IncludeLive().
		One(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfresh (ungroomed) reading visible with IncludeLive: found=%v temp=%.1f\n",
		found, row[2].Float())
}
