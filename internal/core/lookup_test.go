package core

import (
	"bytes"
	"math/rand"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
)

// TestLookupBatchMatchesPointLookup holds the batched lookup to the single
// one: over groomed and post-groomed runs, every key of a random batch —
// duplicates, absent keys and historical timestamps included — resolves
// exactly as PointLookup resolves it alone.
func TestLookupBatchMatchesPointLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ix := newTestIndex(t, nil)
	m := newModel()
	const devices, msgs, cycles = 6, 12, 10
	for c := uint64(1); c <= cycles; c++ {
		recs := make([]record, 1+rng.Intn(20))
		for i := range recs {
			recs[i] = record{device: int64(rng.Intn(devices)), msg: int64(rng.Intn(msgs)), val: rng.Int63n(1 << 30)}
		}
		groom(t, ix, m, c, recs)
	}
	postGroom(t, ix, m, 1, 1, 3)
	postGroom(t, ix, m, 2, 4, 6)

	for round := 0; round < 50; round++ {
		ts := types.MaxTS
		if rng.Intn(3) > 0 {
			ts = types.MakeTS(uint64(rng.Intn(cycles+1)), uint32(rng.Intn(20)))
		}
		keys := make([]LookupKey, 1+rng.Intn(30))
		for i := range keys {
			if i > 0 && rng.Intn(5) == 0 {
				keys[i] = keys[rng.Intn(i)] // duplicate
				continue
			}
			// One device and one msg past the ingested ranges: absent keys.
			dev, msg := int64(rng.Intn(devices+1)), int64(rng.Intn(msgs+1))
			keys[i] = LookupKey{Equality: []keyenc.Value{keyenc.I64(dev)}, Sort: []keyenc.Value{keyenc.I64(msg)}}
		}
		out, found, err := ix.LookupBatch(keys, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			want, wantFound, err := ix.PointLookup(k.Equality, k.Sort, ts)
			if err != nil {
				t.Fatal(err)
			}
			if found[i] != wantFound {
				t.Fatalf("round %d key %d (%v,%v)@%v: batch found=%v, PointLookup found=%v",
					round, i, k.Equality[0].Int(), k.Sort[0].Int(), ts, found[i], wantFound)
			}
			if wantFound && !sameEntry(out[i], want) {
				t.Fatalf("round %d key %d (%v,%v)@%v: batch %+v, PointLookup %+v",
					round, i, k.Equality[0].Int(), k.Sort[0].Int(), ts, out[i], want)
			}
		}
	}

	// Per-key pruning: three runs over disjoint devices, and a batch whose
	// keys sit in the newest and the oldest run. The middle run lies inside
	// the batch's overall bounds but admits neither key.
	ix = newTestIndex(t, nil)
	groom(t, ix, nil, 1, []record{{device: 1, msg: 1}, {device: 2, msg: 1}})
	groom(t, ix, nil, 2, []record{{device: 10, msg: 1}, {device: 11, msg: 1}})
	groom(t, ix, nil, 3, []record{{device: 20, msg: 1}, {device: 21, msg: 1}})
	before := ix.Stats()
	_, found, err := ix.LookupBatch([]LookupKey{
		{Equality: []keyenc.Value{keyenc.I64(20)}, Sort: []keyenc.Value{keyenc.I64(1)}},
		{Equality: []keyenc.Value{keyenc.I64(1)}, Sort: []keyenc.Value{keyenc.I64(1)}},
	}, types.MaxTS)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || !found[1] {
		t.Fatalf("batch keys not found: %v", found)
	}
	after := ix.Stats()
	if searched := after.RunsSearched - before.RunsSearched; searched != 2 {
		t.Errorf("batch searched %d runs, want 2 (the newest and the oldest)", searched)
	}
	if pruned := after.RunsPruned - before.RunsPruned; pruned != 1 {
		t.Errorf("batch pruned %d runs, want 1 (the middle run)", pruned)
	}
}

func sameEntry(a, b run.Entry) bool {
	return a.Hash == b.Hash && bytes.Equal(a.Key, b.Key) && a.BeginTS == b.BeginTS &&
		a.RID == b.RID && bytes.Equal(a.Included, b.Included)
}

// TestPointLookupAllocs pins the allocations of one point lookup over
// eight groomed runs that hold the same keys: a hit resolves in the newest
// run, and a miss inside every run's key range searches all eight.
func TestPointLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	ix := newTestIndex(t, nil)
	for c := uint64(1); c <= 8; c++ {
		var recs []record
		for dev := int64(0); dev < 4; dev++ {
			for msg := int64(0); msg < 20; msg += 2 {
				recs = append(recs, record{device: dev, msg: msg})
			}
		}
		groom(t, ix, nil, c, recs)
	}
	for _, c := range []struct {
		name   string
		msg    int64
		hit    bool
		budget float64
	}{{"hit", 4, true, 22}, {"miss", 5, false, 57}} {
		eq, sortv := []keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(c.msg)}
		allocs := testing.AllocsPerRun(100, func() {
			if _, found, err := ix.PointLookup(eq, sortv, types.MaxTS); err != nil || found != c.hit {
				t.Fatalf("%s: found=%v err=%v", c.name, found, err)
			}
		})
		if allocs > c.budget {
			t.Errorf("%s: %.0f allocs per PointLookup, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
