package wildfire

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
)

// TestSecondaryConcurrentWithPipeline interleaves secondary-index point,
// range and covered queries (plus index-selected Execute plans) with
// concurrent ingest, grooms, post-grooms and evolves — the stale-entry
// window this design must keep closed. Run under -race; correctness
// here is internal consistency, not a fixed result: every returned row
// must actually satisfy the query predicate, and no query may error or
// return a duplicated primary key.
func TestSecondaryConcurrentWithPipeline(t *testing.T) {
	e := newOrdersEngine(t, nil)
	const (
		writers   = 2
		readers   = 3
		opsPerGor = 150
		keySpace  = 80
	)
	var stop atomic.Bool
	var wg, wgPipe sync.WaitGroup

	// Writers: multi-version churn, rows hopping between regions.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerGor; i++ {
				id := int64(rng.Intn(keySpace))
				r := orderRow(id, testRegions[rng.Intn(len(testRegions))], int64(rng.Intn(3)), int64(rng.Intn(1000)))
				if err := e.upsert(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) + 1)
	}

	// The pipeline: groom / post-groom / evolve / merge maintenance.
	wgPipe.Add(1)
	go func() {
		defer wgPipe.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := e.groomCount(); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 1 {
				if _, err := e.postGroom(); err != nil {
					t.Error(err)
					return
				}
			}
			if i%3 == 2 {
				if err := e.syncIndex(); err != nil {
					t.Error(err)
					return
				}
				for _, ti := range e.indexSet() {
					if _, err := ti.idx.MaintainOnce(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()

	// Readers: secondary scans, covered scans, index-selected plans.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerGor; i++ {
				region := testRegions[rng.Intn(len(testRegions))]
				eq := []keyenc.Value{keyenc.Str(region)}
				switch i % 3 {
				case 0:
					recs, err := scanOn(e, "by_region", eq, nil, nil, QueryOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					seen := map[int64]bool{}
					for _, rec := range recs {
						if string(rec.Row[1].Bytes()) != region {
							t.Errorf("ScanOn(%s) returned region %s", region, rec.Row[1].Bytes())
							return
						}
						if id := rec.Row[0].Int(); seen[id] {
							t.Errorf("ScanOn(%s) duplicated id %d", region, id)
							return
						} else {
							seen[id] = true
						}
					}
				case 1:
					rows, err := indexOnlyOn(e, "by_region", eq, nil, nil, QueryOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					for _, row := range rows {
						if string(row[0].Bytes()) != region {
							t.Errorf("covered scan of %s returned %s", region, row[0].Bytes())
							return
						}
					}
				default:
					status := int64(rng.Intn(3))
					res, err := execute(e, exec.Plan{
						Filter: exec.And(exec.Eq("status", keyenc.I64(status)), exec.Ge("amount", keyenc.I64(500))),
						Aggs:   []exec.Agg{{Func: exec.Count}, {Func: exec.Min, Col: "amount"}},
					}, QueryOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					// COUNT 0 means MIN is the zero (NULL stand-in) Value.
					if len(res.Rows) > 0 && res.Rows[0][0].Int() > 0 && res.Rows[0][1].Int() < 500 {
						t.Errorf("index-selected MIN(amount) %d below the filter bound", res.Rows[0][1].Int())
						return
					}
				}
			}
		}(int64(r) + 100)
	}

	wg.Wait()
	stop.Store(true)
	wgPipe.Wait()
	// Final flush, then structural invariants on every index.
	if _, err := e.groomCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	for _, ti := range e.indexSet() {
		if err := ti.idx.VerifyInvariants(); err != nil {
			t.Fatalf("index %q: %v", ti.name, err)
		}
	}
}
