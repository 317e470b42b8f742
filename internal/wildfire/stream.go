package wildfire

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"sync"
)

// Streaming query results. A Cursor pulls rows one at a time instead of
// materializing a []Record: a shard's cursors fetch data blocks lazily
// per row, and the scatter cursors run one worker per shard that
// streams its shard's ordered results into a bounded channel while a
// k-way heap merge reassembles global order at the consumer. Closing a
// cursor early — or cancelling the context it was opened with — cancels
// the workers' context, which unblocks their channel sends and block
// fetches, so abandoned queries stop doing work instead of finishing a
// scatter-gather nobody is waiting for.

// Cursor streams query results of type T in order. The zero value is not
// usable; cursors are returned by the streaming query entry points. A
// Cursor is not safe for concurrent use. Exhausting the cursor (Next
// returning false) releases its resources; Close releases them early and
// is idempotent.
type Cursor[T any] struct {
	fetch   func() (T, bool, error)
	release func() error
	cur     T
	err     error
	done    bool
}

func newCursor[T any](fetch func() (T, bool, error), release func() error) *Cursor[T] {
	return &Cursor[T]{fetch: fetch, release: release}
}

// Next advances to the next result, reporting whether one is available.
// After Next returns false, Err distinguishes exhaustion from failure —
// including a failure of the release path run by the automatic close.
func (c *Cursor[T]) Next() bool {
	if c.done {
		return false
	}
	v, ok, err := c.fetch()
	if err != nil || !ok {
		c.err = err
		if cerr := c.Close(); cerr != nil && c.err == nil {
			c.err = cerr
		}
		return false
	}
	c.cur = v
	return true
}

// Value returns the result Next advanced to. After the stream ends —
// Next returning false, or Close — it returns the zero value, never a
// stale row.
func (c *Cursor[T]) Value() T { return c.cur }

// Err returns the error that terminated the stream, if any. A cancelled
// context surfaces here as the context's error.
func (c *Cursor[T]) Err() error { return c.err }

// Close releases the cursor's resources: the query-gate epoch of a
// shard cursor, or the per-shard workers of a scatter cursor
// (Close cancels their context and waits for them to exit, so no
// goroutine outlives it). The first Close returns the release path's
// error; Close is idempotent and safe (a nil no-op) after exhaustion.
func (c *Cursor[T]) Close() error {
	if c.done {
		return nil
	}
	c.done = true
	var zero T
	c.cur = zero
	if c.release != nil {
		return c.release()
	}
	return nil
}

// streamBuf is the per-shard channel depth of a sharded stream: deep
// enough to overlap shard production with consumer-side merging, shallow
// enough that an abandoned query has little in flight.
const streamBuf = 64

// shardItem is one value of a per-shard stream with its merge key (an
// index scan's is its entry's key bytes, so no key is encoded). A
// worker that fails delivers its error IN-BAND as the stream's final
// item: the merge encounters it exactly when it would next need that
// shard's rows, so a limited scan can never paper over a failed shard
// with a silently short result — rows emitted before the error item
// provably precede the failed shard's pending position in merge order.
type shardItem[T any] struct {
	val T
	key []byte
	err error
}

// shardSource is one shard's stream position in the merge heap.
type shardSource[T any] struct {
	ch    chan shardItem[T]
	cur   shardItem[T]
	shard int
}

// streamHeap orders shard sources by their current merge key; ties break
// by shard ordinal for determinism.
type streamHeap[T any] []*shardSource[T]

func (h streamHeap[T]) Len() int { return len(h) }
func (h streamHeap[T]) Less(i, j int) bool {
	if c := bytes.Compare(h[i].cur.key, h[j].cur.key); c != 0 {
		return c < 0
	}
	return h[i].shard < h[j].shard
}
func (h streamHeap[T]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *streamHeap[T]) Push(x interface{}) { *h = append(*h, x.(*shardSource[T])) }
func (h *streamHeap[T]) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// scatterStream fans a streaming scan out to nShards workers and k-way
// merges their ordered streams into one cursor. open must honor the
// context it is given; its items carry their merge keys. limit
// caps the merged emission (0 = unlimited) — per-shard limits are the
// open callback's business (limit pushdown). The merged cursor's Close
// cancels the workers and waits for them, so cancellation propagates
// into every shard's scan and no goroutine leaks.
//
// onReleaseErr (nil ok) observes the error of a shard cursor's Close
// when the worker exits without reaching its own error reporting — a
// cancelled worker closing its cursor mid-scan. Such errors rarely
// surface through the merged cursor's fetch path (the consumer is gone
// or a sibling's failure already owns the attribution), so they are
// counted — and additionally the first one is returned from the merged
// cursor's own Close, so a caller tearing a stream down mid-flight (the
// network server after a client disconnect) still learns its release
// path failed instead of reading a silent nil.
//
// The goroutines themselves are per query (a cursor may stay open at
// the consumer's pleasure, so tying its streaming to a shared pool
// would let one idle cursor starve every other query), but the
// expensive eager phase — each shard's raw index walk inside open — is
// bounded by the engine's scatter-gather pool: a burst of concurrent
// streaming queries cannot run shards×queries index walks at once. The
// slot is held only across open, never across a channel send.
func scatterStream[T any](
	parent context.Context,
	pool *gatherPool,
	nShards, limit int,
	open func(ctx context.Context, shard int) (*Cursor[shardItem[T]], error),
	onReleaseErr func(error),
) *Cursor[T] {
	ctx, cancel := context.WithCancel(parent)
	sources := make([]*shardSource[T], nShards)
	errCh := make(chan error, nShards)
	var wg sync.WaitGroup
	// releaseErr records the first shard-cursor Close failure; release()
	// returns it after the workers are drained. Cancellation noise is
	// filtered like fail() filters it: a context-shaped Close error just
	// restates that the stream was torn down.
	var relMu sync.Mutex
	var releaseErr error
	for i := 0; i < nShards; i++ {
		src := &shardSource[T]{ch: make(chan shardItem[T], streamBuf), shard: i}
		sources[i] = src
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(src.ch)
			// fail delivers an error in-band (for the merge) and to errCh
			// (for consumers unblocked by the cancel instead), then stops
			// the sibling workers. Pure cancellation is NOT delivered: it
			// means a sibling's failure (or the consumer's close, or the
			// parent context) cancelled this worker mid-scan, and the root
			// cause is already in errCh or the parent — registering the
			// secondary Canceled would let it displace the real error in
			// the merge's attribution.
			fail := func(err error) {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return
				}
				errCh <- err
				select {
				case src.ch <- shardItem[T]{err: err}:
				case <-ctx.Done():
				}
				cancel()
			}
			select {
			case pool.sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			cur, err := open(ctx, src.shard)
			<-pool.sem
			if err != nil {
				fail(err)
				return
			}
			defer func() {
				err := cur.Close()
				if err == nil {
					return
				}
				if onReleaseErr != nil {
					onReleaseErr(err)
				}
				if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					relMu.Lock()
					if releaseErr == nil {
						releaseErr = err
					}
					relMu.Unlock()
				}
			}()
			for cur.Next() {
				select {
				case src.ch <- cur.Value():
				case <-ctx.Done():
					return
				}
			}
			if err := cur.Err(); err != nil {
				fail(err)
			}
		}()
	}

	release := func() error {
		cancel()
		wg.Wait()
		relMu.Lock()
		defer relMu.Unlock()
		return releaseErr
	}

	// terminalErr resolves what ended the stream: a worker's error wins
	// over the bare cancellation it triggered, the parent context's error
	// wins over everything (the caller cancelled; workers were merely
	// told to stop).
	terminalErr := func() error {
		if err := parent.Err(); err != nil {
			return err
		}
		select {
		case err := <-errCh:
			return err
		default:
			return ctx.Err()
		}
	}

	// pull blocks for the next item of one source, bailing on cancel. A
	// closed channel always means clean exhaustion: failures arrive as
	// an in-band error item first.
	pull := func(src *shardSource[T]) (shardItem[T], bool, error) {
		select {
		case it, ok := <-src.ch:
			if !ok {
				return shardItem[T]{}, false, nil
			}
			if it.err != nil {
				return shardItem[T]{}, false, it.err
			}
			return it, true, nil
		case <-ctx.Done():
			return shardItem[T]{}, false, terminalErr()
		}
	}

	var h streamHeap[T]
	initialized := false
	emitted := 0
	fetch := func() (T, bool, error) {
		var zero T
		if limit > 0 && emitted >= limit {
			// Even with the limit satisfied, a shard failure makes the
			// emitted prefix suspect: a sibling worker truncated by the
			// failure's cancel may have dropped rows that belonged in the
			// window. fail() writes errCh before cancelling, so this
			// check cannot miss it.
			if err := terminalErr(); err != nil {
				return zero, false, err
			}
			return zero, false, nil
		}
		if !initialized {
			initialized = true
			for _, src := range sources {
				it, ok, err := pull(src)
				if err != nil {
					return zero, false, err
				}
				if ok {
					src.cur = it
					h = append(h, src)
				}
			}
			heap.Init(&h)
		}
		if len(h) == 0 {
			// Fully drained — or drained because workers aborted on error.
			if err := terminalErr(); err != nil {
				return zero, false, err
			}
			return zero, false, nil
		}
		src := h[0]
		out := src.cur
		it, ok, err := pull(src)
		if err != nil {
			return zero, false, err
		}
		if ok {
			src.cur = it
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		emitted++
		return out.val, true, nil
	}
	return newCursor(fetch, release)
}
