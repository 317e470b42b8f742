// The serving layer end to end: one front end over two transports.
// The order-entry-and-report code is written once, against umzi.Tx and
// umzi.Query, and runs twice: on an in-process *umzi.DB, and on a
// client.DB speaking the wire protocol to an umzi-server (token auth,
// ephemeral port) embedded in the same process over a second DB. Both
// runs must read the same rows. The program ends by abandoning a
// streaming scan mid-flight: the server stops the cursor, and the
// connection returns to the pool for the next request.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"umzi"
	"umzi/client"
	"umzi/internal/server"
)

var (
	ordersDef = umzi.TableDef{
		Name: "orders",
		Columns: []umzi.TableColumn{
			{Name: "order_id", Kind: umzi.KindInt64},
			{Name: "region", Kind: umzi.KindString},
			{Name: "revenue", Kind: umzi.KindFloat64},
		},
		PrimaryKey: []string{"order_id"},
		ShardKey:   []string{"order_id"},
	}
	ordersOpts = umzi.TableOptions{Shards: 4, Index: umzi.IndexSpec{Sort: []string{"order_id"}}}
	regions    = []string{"amer", "emea", "apac"}
)

// orderEntryAndReport enters orders through transactions and reports on
// them, naming no transport: begin and orders come from either DB. It
// returns order 42, then the count of big orders per region.
func orderEntryAndReport(ctx context.Context, begin func(context.Context) (*umzi.Tx, error), orders func() *umzi.Query) [][]umzi.Value {
	const rows = 30_000
	for lo := int64(0); lo < rows; lo += 1000 {
		tx, err := begin(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for i := lo; i < lo+1000; i++ {
			row := umzi.Row{umzi.I64(i), umzi.Str(regions[i%3]), umzi.F64(float64(i % 1000))}
			if err := tx.Upsert("orders", row); err != nil {
				log.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			log.Fatal(err)
		}
	}

	// A point get and an analytical report; IncludeLive reads the
	// committed rows not yet groomed.
	order, found, err := orders().Where(umzi.Eq("order_id", umzi.I64(42))).IncludeLive().One(ctx)
	if err != nil || !found {
		log.Fatalf("point get: found=%v err=%v", found, err)
	}
	report, err := orders().
		Where(umzi.Ge("revenue", umzi.F64(500))).
		GroupBy("region").
		Aggs(umzi.Agg{Func: umzi.AggCount, As: "orders"}).
		IncludeLive().
		All(ctx)
	if err != nil {
		log.Fatal(err)
	}
	return append([][]umzi.Value{order}, report...)
}

func main() {
	ctx := context.Background()
	openDB := func() *umzi.DB {
		db, err := umzi.OpenDB(umzi.DBConfig{Store: umzi.NewMemStore(umzi.LatencyModel{})})
		if err != nil {
			log.Fatal(err)
		}
		return db
	}

	local := openDB() // the in-process transport
	defer local.Close()
	localOrders, err := local.CreateTable(ordersDef, ordersOpts)
	if err != nil {
		log.Fatal(err)
	}

	// The network transport. A real deployment runs `umzi-server -addr
	// :7777 -dir /data -token team=s3cret`; embedding is three calls.
	served := openDB()
	defer served.Close()
	srv, err := server.New(server.Config{
		DB:     served,
		Tokens: map[string]string{"s3cret": "team"},
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatal(err)
		}
		fmt.Println("server shut down cleanly")
	}()

	// Open dials and authenticates; the handle pools connections.
	cdb, err := client.Open(client.Config{Addr: ln.Addr().String(), Token: "s3cret"})
	if err != nil {
		log.Fatal(err)
	}
	defer cdb.Close()
	fmt.Printf("connected to %s as tenant %q\n", cdb.ServerVersion(), cdb.Tenant())

	// DDL over the wire: the same TableDef and TableOptions.
	remoteOrders, err := cdb.CreateTable(ctx, ordersDef, ordersOpts)
	if err != nil {
		log.Fatal(err)
	}

	// Remote transactions ship in one Commit frame, applied under the
	// server's write admission control.
	inProcess := orderEntryAndReport(ctx, local.Begin, localOrders.Query)
	remote := orderEntryAndReport(ctx, cdb.Begin, remoteOrders.Query)
	if fmt.Sprint(inProcess) != fmt.Sprint(remote) {
		log.Fatalf("local read %v, remote read %v", inProcess, remote)
	}
	fmt.Println("order 42 revenue:", inProcess[0][2])
	for _, g := range inProcess[1:] {
		fmt.Printf("big orders in %s: %d\n", g[0].Bytes(), g[1].Int())
	}
	fmt.Println("local and remote agree")

	// A stream holds its connection until drained or closed; Close
	// cancels the server-side cursor, and the Ping proves the connection
	// survived. An ordered scan reads groomed zones, so groom first.
	servedOrders, err := served.Table("orders")
	if err != nil {
		log.Fatal(err)
	}
	if err := servedOrders.Groom(); err != nil {
		log.Fatal(err)
	}
	stream, err := remoteOrders.Query().Select("order_id").OrderBy("order_id").Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3 && stream.Next(); i++ {
		var id int64
		if err := stream.Scan(&id); err != nil {
			log.Fatal(err)
		}
	}
	if err := stream.Close(); err != nil {
		log.Fatal(err)
	}
	if err := cdb.Ping(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("abandoned stream canceled server-side; connection reusable")
}
