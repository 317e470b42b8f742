package wildfire

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"umzi/internal/columnar"
	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// TestBlockCacheStampede checks the singleflight: N concurrent queries
// against a cold cache cost exactly as many storage reads as one cold
// query — every block is fetched and decoded once, and the other N-1
// readers piggyback.
func TestBlockCacheStampede(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	e := newTestEngine(t, func(cfg *ShardedConfig) { cfg.Store = store })
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		rows := make([]Row, 24)
		for i := range rows {
			rows[i] = row(rng.Int63n(8), rng.Int63n(64), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
		}
		if err := e.upsert(0, rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
	}
	plan := exec.Plan{Aggs: []exec.Agg{{Func: exec.Sum, Col: "reading"}}}

	// One cold query establishes the block count (groom pre-populated the
	// cache, so start from a fresh one).
	e.blocks = NewBlockCache(0)
	before := store.Stats().Snapshot().Reads
	if _, err := execute(e, plan, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	coldReads := store.Stats().Snapshot().Reads - before
	if coldReads == 0 {
		t.Fatal("cold query read no blocks; the stampede check would be vacuous")
	}

	// Fresh cold cache again: N concurrent identical queries must not
	// read any object more than once.
	e.blocks = NewBlockCache(0)
	before = store.Stats().Snapshot().Reads
	const n = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = execute(e, plan, QueryOptions{})
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if delta := store.Stats().Snapshot().Reads - before; delta != coldReads {
		t.Fatalf("%d concurrent cold queries cost %d storage reads; singleflight should hold them to %d", n, delta, coldReads)
	}
}

// TestReadPathParallelEquivalence drives four engines — sequential
// (ScanParallelism 1), parallel (8), parallel with a starved block-cache
// budget (eviction churn mid-query), and a 4-shard parallel sharded
// engine — through the same random workload, and checks random plans
// agree across all of them, with index selection and as a forced zone
// scan (NoIndexSelection), with and without the live zone, and at
// historical groom boundaries.
func TestReadPathParallelEquivalence(t *testing.T) {
	seeds := []int64{11, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			readPathEquivalence(t, seed)
		})
	}
}

func readPathEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const devices, msgs = 6, 9

	seq := newTestEngine(t, func(cfg *ShardedConfig) { cfg.ScanParallelism = 1 })
	par := newTestEngine(t, func(cfg *ShardedConfig) { cfg.ScanParallelism = 8 })
	starved := newTestEngine(t, func(cfg *ShardedConfig) {
		cfg.ScanParallelism = 8
		cfg.BlockCacheBytes = 16 << 10
	})
	sharded := newTestShardedEngine(t, 4, func(cfg *ShardedConfig) { cfg.ScanParallelism = 4 })

	singles := []*shard{seq, par, starved}
	var boundaries []types.TS

	check := func(p exec.Plan, opts QueryOptions, label string) {
		t.Helper()
		// The reference is the sequential engine's result; a limited row
		// plan's is its unlimited one (compareRows).
		ref := p
		if len(p.Aggs) == 0 {
			ref.Limit = 0
		}
		want, err := execute(seq, ref, opts)
		if err != nil {
			t.Fatalf("%s seq: %v", label, err)
		}
		zoneScan := func(e *shard) func(exec.Plan) (*exec.Result, error) {
			return func(p exec.Plan) (*exec.Result, error) {
				o := opts
				o.NoIndexSelection = true
				return execute(e, p, o)
			}
		}
		runs := []struct {
			name string
			run  func(exec.Plan) (*exec.Result, error)
		}{
			{"seq", func(p exec.Plan) (*exec.Result, error) { return execute(seq, p, opts) }},
			{"par", func(p exec.Plan) (*exec.Result, error) { return execute(par, p, opts) }},
			{"starved", func(p exec.Plan) (*exec.Result, error) { return execute(starved, p, opts) }},
			{"sharded", func(p exec.Plan) (*exec.Result, error) { return tableExecute(sharded, p, opts) }},
			{"par-zone-scan", zoneScan(par)},
			{"seq-zone-scan", zoneScan(seq)},
		}
		for _, eng := range runs {
			checkRun(t, label+" "+eng.name, p, eng.run, want.Rows)
		}
	}

	for round := 0; round < 16; round++ {
		for _, e := range singles {
			if _, err := e.groomCount(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sharded.groomCount(); err != nil {
			t.Fatal(err)
		}
		if seq.lastGroomTS() != par.lastGroomTS() || seq.lastGroomTS() != sharded.SnapshotTS() {
			t.Fatalf("round %d: groom boundaries diverged", round)
		}
		boundaries = append(boundaries, seq.lastGroomTS())

		if rng.Intn(3) == 0 {
			for _, e := range singles {
				if _, err := e.postGroom(); err != nil {
					t.Fatal(err)
				}
				if err := e.syncIndex(); err != nil {
					t.Fatal(err)
				}
			}
			if err := sharded.PostGroom(); err != nil {
				t.Fatal(err)
			}
			if err := sharded.SyncIndex(); err != nil {
				t.Fatal(err)
			}
		}

		n := 1 + rng.Intn(12)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = row(rng.Int63n(devices), rng.Int63n(msgs), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
		}
		replica := rng.Intn(2)
		for _, e := range singles {
			if err := e.upsert(replica, rows...); err != nil {
				t.Fatal(err)
			}
		}
		if err := sharded.UpsertRows(replica, rows...); err != nil {
			t.Fatal(err)
		}

		if round%3 != 2 {
			continue
		}
		for q := 0; q < 4; q++ {
			p, _ := genPlan(rng, devices, msgs)
			check(p, QueryOptions{}, fmt.Sprintf("round %d q%d groomed", round, q))
			check(p, QueryOptions{IncludeLive: true}, fmt.Sprintf("round %d q%d live", round, q))
			if len(boundaries) > 1 {
				b := rng.Intn(len(boundaries))
				check(p, QueryOptions{TS: boundaries[b]}, fmt.Sprintf("round %d q%d boundary %d", round, q, b))
			}
		}
	}

	// The starved engine must actually have churned; otherwise the
	// eviction path went untested.
	if st := starved.blocks.Stats(); st.Evictions == 0 {
		t.Fatalf("starved engine saw no evictions; budget too generous for the test to bite: %+v", st)
	}
}

// TestBlockCacheChurnInvariant runs parallel scans against a starved
// cache while grooming retires and reclaims blocks underneath them:
// a historical-boundary query must keep returning the same result
// through eviction and reclaim churn, and occupancy must never exceed
// the byte budget.
func TestBlockCacheChurnInvariant(t *testing.T) {
	const budget = 16 << 10
	e := newTestEngine(t, func(cfg *ShardedConfig) {
		cfg.ScanParallelism = 4
		cfg.BlockCacheBytes = budget
	})
	rng := rand.New(rand.NewSource(7))
	seedRows := make([]Row, 48)
	for i := range seedRows {
		seedRows[i] = row(rng.Int63n(8), rng.Int63n(64), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
	}
	if err := e.upsert(0, seedRows...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	ts0 := e.lastGroomTS()
	plan := exec.Plan{
		GroupBy: []string{"day"},
		Aggs:    []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}},
	}
	want, err := execute(e, plan, QueryOptions{TS: ts0})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := execute(e, plan, QueryOptions{TS: ts0})
				if err != nil {
					fail <- fmt.Sprintf("churn query: %v", err)
					return
				}
				if len(got.Rows) != len(want.Rows) {
					fail <- fmt.Sprintf("historical result drifted: %d rows, want %d", len(got.Rows), len(want.Rows))
					return
				}
				for i := range want.Rows {
					for c := range want.Rows[i] {
						if keyenc.Compare(got.Rows[i][c], want.Rows[i][c]) != 0 {
							fail <- fmt.Sprintf("historical result drifted at row %d col %d: %v want %v",
								i, c, got.Rows[i][c], want.Rows[i][c])
							return
						}
					}
				}
				if st := e.blocks.Stats(); st.Bytes > st.Budget {
					fail <- fmt.Sprintf("cache occupancy %d exceeds budget %d", st.Bytes, st.Budget)
					return
				}
			}
		}()
	}

	// Writer: keep grooming and post-grooming so deprecated blocks are
	// retired and reclaimed while the readers scan.
	for round := 0; round < 12; round++ {
		rows := make([]Row, 16)
		for i := range rows {
			rows[i] = row(rng.Int63n(8), rng.Int63n(64), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
		}
		if err := e.upsert(0, rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
		if round%3 == 2 {
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
			if err := e.syncIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	st := e.blocks.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget; churn test did not bite: %+v", budget, st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("final occupancy %d exceeds budget %d", st.Bytes, st.Budget)
	}
}

// cacheCharges sums the MemSize of every resident block and fails the
// test if an entry's charge differs from its block's MemSize.
func cacheCharges(t *testing.T, c *BlockCache) (sum int64) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for name, ent := range s.entries {
			if size := int64(ent.blk.MemSize()); ent.size != size {
				t.Errorf("%s charged %d bytes, MemSize %d", name, ent.size, size)
			}
			sum += ent.size
		}
		s.mu.Unlock()
	}
	return sum
}

// TestBlockCacheChargesFingerprints: the key fingerprint column a query
// beside a live writer publishes on a cached post block is charged to
// the block cache — occupancy grows by at least 4 bytes per post row and
// equals the resident blocks' MemSize, fingerprints included.
func TestBlockCacheChargesFingerprints(t *testing.T) {
	e := newTestEngine(t, nil)
	var rows []Row
	for m := int64(0); m < 200; m++ {
		rows = append(rows, row(m%8, m, float64(m), 100+m%3))
	}
	ingestAndGroom(t, e, rows...)
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	count := exec.Plan{Aggs: []exec.Agg{{Func: exec.Count}}}
	if _, err := execute(e, count, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	before := e.blocks.Stats().Bytes
	if err := e.upsert(0, row(0, 0, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := execute(e, count, QueryOptions{IncludeLive: true}); err != nil {
		t.Fatal(err)
	}
	after := e.blocks.Stats().Bytes
	if after-before < 4*int64(len(rows)) {
		t.Errorf("occupancy grew %d bytes (%d -> %d) for %d fingerprinted post rows", after-before, before, after, len(rows))
	}
	if sum := cacheCharges(t, e.blocks); sum != after {
		t.Errorf("occupancy %d, resident blocks' MemSize %d", after, sum)
	}
}

// TestBlockCacheRechargeEvicts: growing a resident block by its
// fingerprints reserves the growth under the budget, evicting LRU tails
// to make room; a block no longer resident is charged nothing.
func TestBlockCacheRechargeEvicts(t *testing.T) {
	mk := func(n int) *columnar.Block {
		b := columnar.NewBuilder(columnar.MustSchema(columnar.Column{Name: "k", Kind: keyenc.KindInt64}))
		for i := 0; i < n; i++ {
			// Spread keys: 8 bytes a row under any encoding, twice the
			// fingerprint column's 4.
			if err := b.Append([]keyenc.Value{keyenc.I64(int64(uint64(i) * 0x9e3779b97f4a7c15))}); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	a, b := mk(512), mk(512)
	budget := int64(a.MemSize() + b.MemSize())
	c := NewBlockCache(budget)
	c.put("a", a)
	c.put("b", b)
	if st := c.Stats(); st.Blocks != 2 || st.Bytes != budget {
		t.Fatalf("setup: %+v", st)
	}
	if _, published := b.KeyFingerprints([]int{0}); !published {
		t.Fatal("fingerprints not published")
	}
	c.recharge("b", b)
	st := c.Stats()
	if st.Bytes > st.Budget || st.Evictions != 1 || st.Blocks != 1 {
		t.Fatalf("after recharge: %+v, want b alone, charged with its fingerprints", st)
	}
	if _, ok := c.get("b"); !ok || st.Bytes != int64(b.MemSize()) || cacheCharges(t, c) != st.Bytes {
		t.Fatalf("b resident %v, occupancy %d, MemSize %d", ok, st.Bytes, b.MemSize())
	}
	a.KeyFingerprints([]int{0})
	c.recharge("a", a) // evicted: nothing to charge
	if got := c.Stats(); got.Bytes != st.Bytes || got.Blocks != 1 {
		t.Fatalf("recharge of an evicted block changed the cache: %+v", got)
	}
}

// BenchmarkParallelScan measures an aggregation scan over groomed blocks
// at ScanParallelism 1 vs 4: parallel block fetch, decode and classify
// ahead of the sequential reconciliation pass.
func BenchmarkParallelScan(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := ShardedConfig{
				Table:    iotTable(),
				Index:    iotIndex(),
				Store:    storage.NewMemStore(storage.LatencyModel{}),
				Replicas: 2,
			}
			cfg.IndexTuning.K = 2
			cfg.IndexTuning.GroomedLevels = 3
			cfg.IndexTuning.PostGroomedLevels = 2
			cfg.IndexTuning.BlockSize = 1024
			cfg.ScanParallelism = workers
			e, err := openShard(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.close()
			rng := rand.New(rand.NewSource(3))
			for round := 0; round < 8; round++ {
				rows := make([]Row, 512)
				for i := range rows {
					rows[i] = row(rng.Int63n(64), rng.Int63n(1024), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
				}
				if err := e.upsert(0, rows...); err != nil {
					b.Fatal(err)
				}
				if _, err := e.groomCount(); err != nil {
					b.Fatal(err)
				}
			}
			plan := exec.Plan{
				GroupBy: []string{"day"},
				Aggs:    []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}, {Func: exec.Max, Col: "reading"}},
			}
			if _, err := execute(e, plan, QueryOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := execute(e, plan, QueryOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
