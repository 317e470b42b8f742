// Package storage implements the multi-tier storage hierarchy that Umzi is
// designed for (§6 of the paper): high-latency, append-only shared storage
// (the HDFS/S3/GlusterFS role), a capacity-bounded local SSD block cache,
// and latency models that let benchmarks reproduce the cached-vs-purged
// performance cliffs of Figures 14 and 15.
//
// The shared-storage substitute deliberately enforces the semantics the
// paper calls out: objects are written whole and are immutable afterwards
// (no in-place updates, no random writes), reads happen at object or block
// granularity, and listing is by prefix. Two implementations are provided:
// MemStore (for tests and benchmarks) and FSStore (durable, for the
// recovery example and crash tests). Both are safe for concurrent use.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Common storage errors.
var (
	// ErrNotExist is returned when an object is absent.
	ErrNotExist = errors.New("storage: object does not exist")
	// ErrExists is returned when writing an object that already exists;
	// shared storage objects are immutable, so writers must pick new names.
	ErrExists = errors.New("storage: object already exists")
	// ErrRange is returned for out-of-bounds block reads.
	ErrRange = errors.New("storage: read beyond object size")
)

// ObjectStore is the shared-storage abstraction. Implementations must be
// safe for concurrent use and must enforce write-once semantics.
type ObjectStore interface {
	// Put writes a complete, immutable object. It fails with ErrExists if
	// the name is taken.
	Put(name string, data []byte) error
	// Get reads a whole object. The returned slice belongs to the
	// caller, and the store never writes it again: a decoded columnar
	// block keeps it and reads it in place for as long as it lives.
	Get(name string) ([]byte, error)
	// GetRange reads length bytes at offset. Implementations charge the
	// latency model once per call: Umzi transfers whole data blocks at a
	// time precisely to amortize this (§7).
	GetRange(name string, offset, length int64) ([]byte, error)
	// Size returns the object's size in bytes.
	Size(name string) (int64, error)
	// List returns the names with the given prefix, sorted ascending.
	List(prefix string) ([]string, error)
	// Delete removes an object. Deleting a missing object is not an error
	// (GC races are benign).
	Delete(name string) error
}

// LatencyModel simulates access cost of a storage tier. The zero value is
// free (no simulated latency), which unit tests use; benchmarks configure
// shared storage to be markedly slower than the SSD cache.
type LatencyModel struct {
	// PerOp is charged once per operation (seek/RPC cost).
	PerOp time.Duration
	// PerKB is charged per 1024 bytes transferred (bandwidth cost).
	PerKB time.Duration
}

// sleep charges the model for transferring n bytes.
func (m LatencyModel) sleep(n int) {
	if m.PerOp == 0 && m.PerKB == 0 {
		return
	}
	d := m.PerOp + m.PerKB*time.Duration((n+1023)/1024)
	if d > 0 {
		time.Sleep(d)
	}
}

// Stats counts storage traffic. All fields are updated atomically; read
// them with the Snapshot method. The write-amplification ablation benches
// (non-persisted levels, §6.1) are built on these counters.
type Stats struct {
	Reads      atomic.Int64
	Writes     atomic.Int64
	Deletes    atomic.Int64
	BytesRead  atomic.Int64
	BytesWrite atomic.Int64
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Reads, Writes, Deletes  int64
	BytesRead, BytesWritten int64
}

// Snapshot returns a consistent-enough copy for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Reads:        s.Reads.Load(),
		Writes:       s.Writes.Load(),
		Deletes:      s.Deletes.Load(),
		BytesRead:    s.BytesRead.Load(),
		BytesWritten: s.BytesWrite.Load(),
	}
}

// MemStore is an in-memory ObjectStore with a configurable latency model.
type MemStore struct {
	lat   LatencyModel
	stats Stats

	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemStore returns an empty in-memory store with the given latency.
func NewMemStore(lat LatencyModel) *MemStore {
	return &MemStore{lat: lat, objects: make(map[string][]byte)}
}

// Stats exposes the traffic counters.
func (s *MemStore) Stats() *Stats { return &s.stats }

// Put implements ObjectStore.
func (s *MemStore) Put(name string, data []byte) error {
	s.mu.Lock()
	if _, ok := s.objects[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.objects[name] = cp
	s.mu.Unlock()

	s.stats.Writes.Add(1)
	s.stats.BytesWrite.Add(int64(len(data)))
	s.lat.sleep(len(data))
	return nil
}

// Get implements ObjectStore.
func (s *MemStore) Get(name string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	s.stats.Reads.Add(1)
	s.stats.BytesRead.Add(int64(len(data)))
	s.lat.sleep(len(data))
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// GetRange implements ObjectStore.
func (s *MemStore) GetRange(name string, offset, length int64) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if offset < 0 || length < 0 || offset+length > int64(len(data)) {
		return nil, fmt.Errorf("%w: %s [%d,+%d) of %d", ErrRange, name, offset, length, len(data))
	}
	s.stats.Reads.Add(1)
	s.stats.BytesRead.Add(length)
	s.lat.sleep(int(length))
	cp := make([]byte, length)
	copy(cp, data[offset:offset+length])
	return cp, nil
}

// Size implements ObjectStore.
func (s *MemStore) Size(name string) (int64, error) {
	s.mu.RLock()
	data, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return int64(len(data)), nil
}

// List implements ObjectStore.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	var names []string
	for name := range s.objects {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names, nil
}

// Delete implements ObjectStore.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	delete(s.objects, name)
	s.mu.Unlock()
	s.stats.Deletes.Add(1)
	return nil
}

// Len returns the number of stored objects (test helper).
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}
