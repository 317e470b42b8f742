// Package crash holds fault-injection scenarios: storage writes start
// failing at an arbitrary point — most often mid-groom, since grooming
// is where write bursts happen — the process state is dropped without
// Close, and recovery from shared storage must preserve every
// acknowledged transaction ("the log is the database").
package crash

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"umzi"
	"umzi/internal/storage"
	"umzi/internal/workload"
)

func init() {
	workload.Register(&workload.Scenario{
		Func: KillDuringGroom,
		Desc: "repeated injected write-fault crashes across ingest and groom; every reopen must recover all acked rows and surface nothing unacked",
		Attrs: []string{
			workload.AttrCrashInjecting,
			workload.AttrWriteHeavy,
		},
		Timeout: 3 * time.Minute,
	})
}

// minCrashes is the floor of injected-failure iterations one run must
// survive (scaled up by -scale).
const minCrashes = 20

// KillDuringGroom loops: revive the store with a small randomized write
// budget, ingest batches and groom until the budget runs out and a
// write fails, then "kill" the process — drop the DB without Close —
// and reopen against the same store. Because batches are frequent and
// cheap (one log append) while grooms are write bursts, the budget cut
// usually lands inside a groom, the hardest point to recover from: run
// files half-written, the watermark not yet advanced.
//
// An oracle tracks every key by fate: acked (Upsert returned nil — the
// commit log accepted it) and attempted (Upsert was called; the rows
// may or may not have reached the log). After every reopen, a full scan
// at MaxTS+IncludeLive must contain every acked key and nothing outside
// the attempted set, with no duplicates.
func KillDuringGroom(ctx context.Context, s *workload.State) {
	base := s.Backend("crash")
	fault := storage.NewFaultStore(base, 0)
	rng := rand.New(rand.NewSource(s.Seed() + 17))

	acked := map[int64]bool{}
	attempted := map[int64]bool{}
	var nextSeq int64

	def := umzi.TableDef{
		Name: "events",
		Columns: []umzi.TableColumn{
			{Name: "account", Kind: umzi.KindInt64},
			{Name: "seq", Kind: umzi.KindInt64},
			{Name: "amount", Kind: umzi.KindFloat64},
		},
		PrimaryKey: []string{"account", "seq"},
		ShardKey:   []string{"account"},
	}

	// reopen recovers a DB from the shared store with faults disabled
	// (recovery itself is not under test here) and verifies the oracle.
	reopen := func(create bool) (*umzi.DB, *umzi.Table) {
		fault.Revive(1 << 40)
		db, err := umzi.OpenDB(umzi.DBConfig{Store: fault})
		if err != nil {
			s.Fatalf("reopen: %v", err)
		}
		var tbl *umzi.Table
		if create {
			tbl, err = db.CreateTable(def, umzi.TableOptions{
				Shards:     4,
				Durability: umzi.DurabilityOptions{SyncPolicy: umzi.SyncPerCommit},
			})
		} else {
			tbl, err = db.Table("events")
		}
		if err != nil {
			s.Fatalf("reopen table: %v", err)
		}
		verify(ctx, s, tbl, acked, attempted)
		return db, tbl
	}

	db, tbl := reopen(true)
	crashes := 0
	target := minCrashes * s.Scale()
	for crashes < target && ctx.Err() == nil {
		// Arm the fault: the next 20..300 storage writes succeed, then
		// everything fails until the post-crash Revive.
		fault.Revive(int64(20 + rng.Intn(280)))

		var crashErr error
		for batch := 0; crashErr == nil && ctx.Err() == nil; batch++ {
			if batch > 100_000 {
				s.Fatalf("fault budget never exhausted after %d batches", batch)
			}
			account := int64(rng.Intn(64))
			n := 1 + rng.Intn(4)
			rows := make([]umzi.Row, n)
			for i := range rows {
				rows[i] = umzi.Row{
					umzi.I64(account),
					umzi.I64(nextSeq),
					umzi.F64(rng.Float64()),
				}
				attempted[account<<32|nextSeq] = true
				nextSeq++
			}
			stop := s.Time("ingest")
			err := tbl.Upsert(ctx, rows...)
			stop()
			if err == nil {
				for _, r := range rows {
					acked[r[0].Int()<<32|r[1].Int()] = true
				}
			} else {
				crashErr = err
			}
			if crashErr == nil && batch%5 == 4 {
				if err := tbl.Groom(); err != nil {
					crashErr = err
				}
				// Merged groomed runs live in memory only: make sure
				// some exist when the kill comes.
				if _, err := tbl.MaintainOnce(); err != nil && crashErr == nil {
					crashErr = err
				}
			}
		}
		if ctx.Err() != nil {
			break
		}
		if !errors.Is(crashErr, storage.ErrInjectedFault) {
			s.Errorf("crash %d: failure is not the injected fault: %v", crashes, crashErr)
		}

		// Kill: drop the handles without Close (reopen overwrites them).
		// The live zone, half-done groom output and unflushed state all
		// vanish; only the store (log included) survives the reopen.
		crashes++
		s.Add("crashes", 1)
		db, tbl = reopen(false)
	}

	s.Add("rows-acked", int64(len(acked)))
	s.Add("rows-attempted", int64(len(attempted)))
	if ctx.Err() != nil && crashes < target {
		s.Errorf("timed out after %d/%d crash iterations", crashes, target)
		return
	}

	// Final pass: groom everything with faults off, verify again (the
	// recovered tail must survive grooming too), and close cleanly.
	if err := tbl.Groom(); err != nil {
		s.Fatalf("final groom: %v", err)
	}
	verify(ctx, s, tbl, acked, attempted)
	if err := db.Close(); err != nil {
		s.Errorf("final close: %v", err)
	}
	s.Logf("done: %d crashes survived, %d acked rows intact", crashes, len(acked))
}

// verify scans the whole table at MaxTS+IncludeLive and checks it is
// exactly consistent with the oracle: every acked key present, no key
// outside the attempted set, no duplicates.
func verify(ctx context.Context, s *workload.State, tbl *umzi.Table, acked, attempted map[int64]bool) {
	rows, err := tbl.Query().Select("account", "seq").At(umzi.MaxTS).IncludeLive().All(ctx)
	if err != nil {
		s.Fatalf("verify scan: %v", err)
	}
	got := make(map[int64]bool, len(rows))
	for _, r := range rows {
		key := r[0].Int()<<32 | r[1].Int()
		if got[key] {
			s.Errorf("verify: key account=%d seq=%d surfaced twice", r[0].Int(), r[1].Int())
		}
		got[key] = true
		if !attempted[key] {
			s.Errorf("verify: key account=%d seq=%d surfaced but was never written", r[0].Int(), r[1].Int())
		}
	}
	lost := 0
	for key := range acked {
		if !got[key] {
			lost++
			if lost <= 5 {
				s.Errorf("verify: ACKED ROW LOST: account=%d seq=%d", key>>32, key&0xffffffff)
			}
		}
	}
	if lost > 5 {
		s.Errorf("verify: ... and %d more acked rows lost", lost-5)
	}
}
