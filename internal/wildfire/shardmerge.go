package wildfire

import (
	"context"
	"sync"
)

// Scatter-gather machinery of the sharding layer: a bounded worker pool
// that fans a batch task out to every shard concurrently. Ordered
// index scans stream through scatterStream (stream.go) instead —
// per-shard indexStream workers feeding a k-way merge on the entries'
// key bytes — with their eager phase (the raw index walk) admitted
// through this same pool, so the pool bounds the heavy work of every
// path: grooming rounds, batched lookups, unordered scans, pushed-down
// analytical plans and the streaming scans' startup.

// gatherPool bounds the number of per-shard tasks running at once. One
// pool is shared by every batch query of a ShardedEngine, so a burst of
// concurrent scatter queries cannot spawn shards×queries goroutines.
type gatherPool struct {
	sem chan struct{}
}

func newGatherPool(limit int) *gatherPool {
	if limit < 1 {
		limit = 1
	}
	return &gatherPool{sem: make(chan struct{}, limit)}
}

// each runs f(0..n-1) on the pool and waits for all of them; the first
// error (lowest index) wins, and a context cancellation surfaces as the
// context's error when no task failed on its own. Task submission blocks
// while the pool is saturated, which is what bounds concurrency — a
// cancelled context also unblocks submission, so a cancelled caller is
// never stuck waiting for someone else's slots.
func (p *gatherPool) each(ctx context.Context, n int, f func(int) error) error {
	if n == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
		if errs[i] != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-p.sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
