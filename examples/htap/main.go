// HTAP end-to-end: transactions and analytics running concurrently over
// one table, with the groomer, post-groomer and indexer daemons
// auto-started by the DB — the workload shape of the paper's §8.4
// experiments. An order stream updates account balances (OLTP) while an
// analytics thread repeatedly aggregates per-account history through
// the same query surface (OLAP over data that evolves groomed ->
// post-groomed underneath it).
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"umzi"
)

func main() {
	ctx := context.Background()

	// Background daemons per table: groom every 20ms, post-groom every
	// 100ms (the paper's 1s / 10min cadence, scaled down for a demo).
	db, err := umzi.OpenDB(umzi.DBConfig{
		Store:          umzi.NewMemStore(umzi.LatencyModel{PerOp: 50 * time.Microsecond}),
		Cache:          umzi.NewSSDCache(1<<22, umzi.LatencyModel{}),
		GroomEvery:     20 * time.Millisecond,
		PostGroomEvery: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	ledger, err := db.CreateTable(umzi.TableDef{
		Name: "ledger",
		Columns: []umzi.TableColumn{
			{Name: "account", Kind: umzi.KindInt64},
			{Name: "seq", Kind: umzi.KindInt64},
			{Name: "amount", Kind: umzi.KindFloat64},
			{Name: "region", Kind: umzi.KindString},
		},
		PrimaryKey:   []string{"account", "seq"},
		ShardKey:     []string{"account"},
		PartitionKey: "region",
	}, umzi.TableOptions{
		Index: umzi.IndexSpec{
			Equality: []string{"account"},
			Sort:     []string{"seq"},
			Included: []string{"amount"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	regions := []string{"emea", "apac", "amer"}
	const accounts = 16
	var stop atomic.Bool
	var txns, scans atomic.Int64
	var wg sync.WaitGroup

	// OLTP: two writer threads streaming transactions into the one
	// committed log per shard, each with its own range of seq values.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(writer int) {
			defer wg.Done()
			seq := int64(writer) * 1_000_000
			for !stop.Load() {
				tx, err := db.Begin(ctx)
				if err != nil {
					return
				}
				for i := 0; i < 5; i++ {
					acct := (seq + int64(i)) % accounts
					row := umzi.Row{
						umzi.I64(acct),
						umzi.I64(seq + int64(i)),
						umzi.F64(float64(seq%1000) / 10),
						umzi.Str(regions[int(acct)%len(regions)]),
					}
					if err := tx.Upsert("ledger", row); err != nil {
						tx.Abort()
						return
					}
				}
				if err := tx.Commit(ctx); err != nil {
					return
				}
				seq += 5
				txns.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}

	// OLAP: an analytics thread aggregating account activity — a
	// covered plan (account, seq, amount all indexed) racing the
	// pipeline underneath it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for acct := int64(0); acct < accounts; acct++ {
				_, err := ledger.Query().
					Where(umzi.Eq("account", umzi.I64(acct))).
					Aggs(umzi.Agg{Func: umzi.AggCount}, umzi.Agg{Func: umzi.AggSum, Col: "amount"}).
					All(ctx)
				if err != nil {
					return
				}
				scans.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Let the system run and report its shape every 100ms.
	for tick := 0; tick < 6; tick++ {
		time.Sleep(100 * time.Millisecond)
		fmt.Printf("t=%3dms txns=%-5d scans=%-5d live=%-5d snapshot=%v\n",
			(tick+1)*100, txns.Load(), scans.Load(), ledger.LiveCount(), ledger.SnapshotTS())
	}
	stop.Store(true)
	wg.Wait()

	// Final consistency check: every account's streamed history is a
	// de-duplicated sequence, and its turnover matches a pushed-down
	// aggregate of the same snapshot.
	fmt.Println("\nfinal per-account history (first 4 accounts):")
	ts := ledger.SnapshotTS()
	for acct := int64(0); acct < 4; acct++ {
		rows, err := ledger.Query().
			Where(umzi.Eq("account", umzi.I64(acct))).
			Select("seq", "amount").
			OrderBy("seq").
			At(ts).
			Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		var entries int
		var total float64
		last := int64(-1)
		for rows.Next() {
			var seq int64
			var amount float64
			if err := rows.Scan(&seq, &amount); err != nil {
				log.Fatal(err)
			}
			if seq <= last {
				log.Fatalf("account %d: sequence %d out of order (after %d)", acct, seq, last)
			}
			last = seq
			entries++
			total += amount
		}
		if err := rows.Err(); err != nil {
			log.Fatal(err)
		}
		rows.Close()

		agg, err := ledger.Query().
			Where(umzi.Eq("account", umzi.I64(acct))).
			Aggs(umzi.Agg{Func: umzi.AggCount}, umzi.Agg{Func: umzi.AggSum, Col: "amount"}).
			At(ts).
			All(ctx)
		if err != nil {
			log.Fatal(err)
		}
		var aggN int64
		var aggSum float64
		if len(agg) > 0 {
			aggN, aggSum = agg[0][0].Int(), agg[0][1].Float()
		}
		if int64(entries) != aggN || total != aggSum {
			log.Fatalf("account %d: scan found %d entries / %.1f, aggregate %d / %.1f",
				acct, entries, total, aggN, aggSum)
		}
		fmt.Printf("  account %d: %d entries, turnover %.1f (scan and aggregate agree)\n",
			acct, entries, total)
	}
}
