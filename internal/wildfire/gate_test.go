package wildfire

import (
	"sync"
	"sync/atomic"
	"testing"

	"umzi/internal/keyenc"
)

func TestGateBasics(t *testing.T) {
	var g queryGate
	e := g.enter()
	if e != 0 {
		t.Fatalf("first epoch = %d", e)
	}
	// Cannot advance past an active reader of the current epoch twice:
	// one advance is allowed (it checks the PREVIOUS epoch's slot).
	if !g.tryAdvance() {
		t.Fatal("advance 0->1 should succeed (epoch -1 slot is empty)")
	}
	if g.tryAdvance() {
		t.Fatal("advance 1->2 must wait for the epoch-0 reader")
	}
	g.exit(e)
	if !g.tryAdvance() {
		t.Fatal("advance 1->2 should succeed after reader exit")
	}
	if g.current() != 2 {
		t.Fatalf("epoch = %d, want 2", g.current())
	}
}

func TestGateReclamationSafety(t *testing.T) {
	// An item tagged at epoch T is reclaimable when current >= T+2. Verify
	// a reader that entered before tagging always blocks reclamation.
	var g queryGate
	reader := g.enter() // epoch 0 reader
	tag := g.current()  // item tagged at epoch 0

	g.tryAdvance() // -> 1
	if g.current() >= tag+2 {
		t.Fatal("reclaimed while the pre-tag reader is still active")
	}
	// Stuck: epoch can't reach 2 until the reader exits.
	for i := 0; i < 3; i++ {
		g.tryAdvance()
	}
	if g.current() >= tag+2 {
		t.Fatal("epoch advanced past an active reader")
	}
	g.exit(reader)
	g.tryAdvance()
	if g.current() < tag+2 {
		t.Fatalf("epoch = %d, want >= %d after reader drain", g.current(), tag+2)
	}
}

func TestGateConcurrent(t *testing.T) {
	var g queryGate
	var wg sync.WaitGroup
	var stop atomic.Bool

	// Readers enter/exit in tight loops.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e := g.enter()
				g.exit(e)
			}
		}()
	}
	// Reclaimer advances continuously.
	advanced := 0
	for i := 0; i < 200_000; i++ {
		if g.tryAdvance() {
			advanced++
		}
	}
	stop.Store(true)
	wg.Wait()
	if advanced == 0 {
		t.Fatal("gate never advanced under concurrent readers")
	}
	// After all readers exit, both slots must be drained.
	g.tryAdvance()
	g.tryAdvance()
	for s := 0; s < 2; s++ {
		if n := g.active[s].Load(); n != 0 {
			t.Fatalf("slot %d left with %d registrations", s, n)
		}
	}
}

func TestUpdateSkewedEngineWorkload(t *testing.T) {
	// Integration of the Figure 13 ingredients at test scale: update-heavy
	// ingest with post-grooms; every key's newest version must win.
	e := newTestEngine(t, nil)
	latest := map[[2]int64]float64{}
	for c := 0; c < 8; c++ {
		for i := 0; i < 20; i++ {
			dev := int64(i % 4)
			m := int64((c*3 + i) % 10) // heavy overlap across cycles
			val := float64(c*100 + i)
			if err := e.upsert(row(dev, m, val, 100)); err != nil {
				t.Fatal(err)
			}
			latest[[2]int64{dev, m}] = val
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
		if c%3 == 2 {
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
			if err := e.syncIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, want := range latest {
		eq, sortv := key(k[0], k[1])
		rec, found, err := getOn(e, "", eq, sortv, QueryOptions{})
		if err != nil || !found {
			t.Fatalf("(%d,%d): %v %v", k[0], k[1], err, found)
		}
		if rec.Row[2].Float() != want {
			t.Errorf("(%d,%d): reading %v, want %v", k[0], k[1], rec.Row[2].Float(), want)
		}
	}
}

func TestIndexOnlyScanMatchesScan(t *testing.T) {
	e := newTestEngine(t, nil)
	for i := 0; i < 30; i++ {
		if err := e.upsert(row(1, int64(i), float64(i)*1.5, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	full, err := scanOn(e, "", []keyenc.Value{keyenc.I64(1)}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixOnly, err := indexOnlyOn(e, "", []keyenc.Value{keyenc.I64(1)}, nil, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(ixOnly) {
		t.Fatalf("scan %d rows, index-only %d", len(full), len(ixOnly))
	}
	for i := range full {
		if full[i].Row[1].Int() != ixOnly[i][1].Int() || full[i].Row[2].Float() != ixOnly[i][2].Float() {
			t.Errorf("row %d diverges between scan and index-only scan", i)
		}
	}
}
