package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"umzi"
)

// span is one timed call into a layer, recorded by the driver around the
// call (the program itself carries no spans yet). Spans of one driver
// operation share Op; Parent indexes the span that caused this one, -1
// at the top.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since tracer creation
	End    int64  `json:"end_ns"`
	// N is the count taken at the same boundary: rows drained, bytes
	// moved.
	N int64 `json:"n,omitempty"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, which is how the end-to-end run stays free of
// tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// op is the driver operation in flight on the single client
	// goroutine; the store decorator stamps it on the spans it records
	// from inside the engine. With a concurrent writer (htap_mixed) the
	// stamp means "the analyst op that overlapped", not a causal parent.
	op atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op uint64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) { t.endN(i, 0) }

// endN closes a span and attaches its count.
func (t *tracer) endN(i int32, n int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End, t.spans[i].N = now, n
	t.mu.Unlock()
}

// count is how many spans have been recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 200_000
	t := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0, -1))
	}
	return time.Since(start) / n
}

func (t *tracer) setOp(op uint64) {
	if t != nil {
		t.op.Store(op)
	}
}

func (t *tracer) currentOp() uint64 {
	if t == nil {
		return 0
	}
	return t.op.Load()
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Indices into storeCounts.
const (
	scPutOps = iota
	scPutBytes
	scGetOps
	scGetBytes
	scRangeGetOps
	scListOps
	scDelOps
	scBusyNS
	scPutWAL // bytes put, by what the object holds
	scPutBlock
	scPutRun
	scPutMeta
	scLen
)

// storeCounts is the traffic the decorator has seen.
type storeCounts [scLen]int64

func (a storeCounts) add(b storeCounts) storeCounts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// tracedStore decorates the ObjectStore handed to OpenDB: it is the
// storage layer's boundary as far as the driver can see it. Counters
// are atomics; with a tracer attached every call is also a span.
type tracedStore struct {
	inner umzi.ObjectStore
	tr    atomic.Pointer[tracer] // nil: count only
	c     [scLen]atomic.Int64
}

func newTracedStore(inner umzi.ObjectStore, tr *tracer) *tracedStore {
	s := &tracedStore{inner: inner}
	s.tr.Store(tr)
	return s
}

// setTracer switches span recording; the counters always run.
func (s *tracedStore) setTracer(tr *tracer) { s.tr.Store(tr) }

func (s *tracedStore) counts() (out storeCounts) {
	for i := range out {
		out[i] = s.c[i].Load()
	}
	return out
}

// timed runs one store call, adds its time to the busy counter and,
// when tracing, records it as a span carrying the bytes it moved.
func (s *tracedStore) timed(name string, f func() int) {
	tr := s.tr.Load()
	sp := tr.begin(name, tr.currentOp(), -1)
	t := time.Now()
	n := f()
	s.c[scBusyNS].Add(int64(time.Since(t)))
	tr.endN(sp, int64(n))
}

// putClass buckets an object by what the engine stores under its name:
// commit-log segments, columnar data blocks, index runs, and the rest
// (catalogs, watermarks, PSN metadata, endTS sidecars).
func putClass(name string) int {
	switch {
	case strings.Contains(name, "/seg-"):
		return 0
	case strings.Contains(name, "/block-"):
		return 1
	case strings.Contains(name, "/run-"):
		return 2
	}
	return 3
}

func (s *tracedStore) Put(name string, data []byte) (err error) {
	s.timed("storage.put", func() int { err = s.inner.Put(name, data); return len(data) })
	if err == nil {
		s.c[scPutOps].Add(1)
		s.c[scPutBytes].Add(int64(len(data)))
		s.c[scPutWAL+putClass(name)].Add(int64(len(data)))
	}
	return err
}

func (s *tracedStore) Get(name string) (data []byte, err error) {
	s.timed("storage.get", func() int { data, err = s.inner.Get(name); return len(data) })
	if err == nil {
		s.c[scGetOps].Add(1)
		s.c[scGetBytes].Add(int64(len(data)))
	}
	return data, err
}

func (s *tracedStore) GetRange(name string, offset, length int64) (data []byte, err error) {
	s.timed("storage.get_range", func() int { data, err = s.inner.GetRange(name, offset, length); return len(data) })
	if err == nil {
		s.c[scRangeGetOps].Add(1)
		s.c[scGetBytes].Add(int64(len(data)))
	}
	return data, err
}

func (s *tracedStore) Size(name string) (int64, error) { return s.inner.Size(name) }

func (s *tracedStore) List(prefix string) (names []string, err error) {
	s.timed("storage.list", func() int { names, err = s.inner.List(prefix); return len(names) })
	s.c[scListOps].Add(1)
	return names, err
}

func (s *tracedStore) Delete(name string) (err error) {
	s.timed("storage.delete", func() int { err = s.inner.Delete(name); return 0 })
	s.c[scDelOps].Add(1)
	return err
}
