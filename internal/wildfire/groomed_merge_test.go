package wildfire

import (
	"fmt"
	"math/rand"
	"regexp"
	"sync"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// putLog records the name of every object put through it.
type putLog struct {
	storage.ObjectStore
	mu    sync.Mutex
	names []string
}

func (p *putLog) Put(name string, data []byte) error {
	p.mu.Lock()
	p.names = append(p.names, name)
	p.mu.Unlock()
	return p.ObjectStore.Put(name, data)
}

// TestGroomedMergesNeverReachSharedStorage: merged groomed runs live in
// memory only (§6.1) — across 40 grooms with index maintenance between
// them no groomed run above level 0 is ever put, every index answers like
// the oracle before and after the evolve that discards them, and an
// engine dropped without Close reopens from the level-0 runs alone.
func TestGroomedMergesNeverReachSharedStorage(t *testing.T) {
	store := &putLog{ObjectStore: storage.NewMemStore(storage.LatencyModel{})}
	cfg := ShardedConfig{
		Table:       ordersTestTable(),
		Index:       ordersPrimary(),
		Secondaries: []SecondaryIndexSpec{byRegion(), byStatusAmount()},
		Store:       store,
	}
	cfg.IndexTuning.K = 2
	cfg.IndexTuning.BlockSize = 1024
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20))
	shadow := shadowOrders{}
	groomSome := func(e *shard, grooms int) {
		t.Helper()
		for g := 0; g < grooms; g++ {
			for i := 0; i < 6; i++ {
				// A small id space: most writes are updates that move a
				// row between regions and statuses.
				r := orderRow(rng.Int63n(80), testRegions[rng.Intn(len(testRegions))], rng.Int63n(4), rng.Int63n(1000))
				if err := e.upsert(r); err != nil {
					t.Fatal(err)
				}
				shadow[r[0].Int()] = r
			}
			if _, err := e.groomCount(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.maintainOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(e *shard, when string) {
		t.Helper()
		opts := QueryOptions{TS: types.MaxTS}
		for id := int64(0); id < 82; id++ {
			rec, found, err := getOn(e, "", []keyenc.Value{keyenc.I64(id)}, nil, opts)
			want, ok := shadow[id]
			if err != nil || found != ok {
				t.Fatalf("%s: get %d: found=%v want %v, err %v", when, id, found, ok, err)
			}
			if found {
				sameRows(t, fmt.Sprintf("%s: get %d", when, id), map[int64]Row{id: rec.Row}, map[int64]Row{id: want})
			}
		}
		for status := int64(0); status < 4; status++ {
			recs, err := scanOn(e, "by_status_amount", []keyenc.Value{keyenc.I64(status)},
				[]keyenc.Value{keyenc.I64(200)}, []keyenc.Value{keyenc.I64(700)}, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s: status %d amount 200..700", when, status), recordsToMap(t, recs), shadow.byStatusAmount(status, 200, 700))
		}
		for _, region := range testRegions {
			recs, err := scanOn(e, "by_region", []keyenc.Value{keyenc.Str(region)}, nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, when+": region "+region, recordsToMap(t, recs), shadow.byRegion(region))
		}
	}
	merges := func(e *shard) (n int64) {
		for _, ti := range e.indexSet() {
			n += ti.idx.Stats().Merges
		}
		return n
	}

	groomSome(e, 40)
	if merges(e) == 0 {
		t.Fatal("40 grooms merged nothing")
	}
	check(e, "groomed")
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	check(e, "evolved")

	// More grooms and merges, so the crash below finds merged groomed
	// runs that exist in memory only.
	before := merges(e)
	groomSome(e, 8)
	if merges(e) == before {
		t.Fatal("no merged groomed run at the crash")
	}
	check(e, "groomed again")

	merged, level0Run := regexp.MustCompile(`/z1/run-\d+-L[1-9]`), regexp.MustCompile(`/z1/run-\d+-L0-`)
	level0 := 0
	store.mu.Lock()
	for _, name := range store.names {
		if merged.MatchString(name) {
			t.Errorf("merged groomed run was put to shared storage: %s", name)
		}
		if level0Run.MatchString(name) {
			level0++
		}
	}
	store.mu.Unlock()
	if level0 == 0 {
		t.Fatal("the put log saw no level-0 groomed run: name pattern out of date")
	}

	// Crash: drop the engine without Close.
	e2, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	check(e2, "reopened")
}
