package run

import (
	"errors"
	"fmt"

	"umzi/internal/storage"
)

// ErrCorrupt marks an object whose bytes were read but do not parse as a
// run: an interrupted write or damage at rest. LoadHeader wraps every
// such failure in it; a failed read is returned as the store reported
// it, so a caller can tell "not a run" from "could not read".
var ErrCorrupt = errors.New("run: corrupt object")

// LoadHeader fetches and parses just the header block of a run object in
// shared storage: a footer read plus a header read, no data-block traffic.
// This is what recovery and cache-manager purging rely on — a purged run
// keeps only its header locally (§6.2).
func LoadHeader(store storage.ObjectStore, name string) (*Header, error) {
	size, err := store.Size(name)
	if err != nil {
		return nil, err
	}
	if size < FooterSize {
		return nil, fmt.Errorf("%w: %s too small (%d bytes)", ErrCorrupt, name, size)
	}
	tail, err := store.GetRange(name, size-FooterSize, FooterSize)
	if err != nil {
		return nil, err
	}
	off, l, err := ParseFooter(tail)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, name, err)
	}
	if body := uint64(size - FooterSize); off > body || uint64(l) > body-off {
		return nil, fmt.Errorf("%w: %s: header extent out of range", ErrCorrupt, name)
	}
	hdr, err := store.GetRange(name, int64(off), int64(l))
	if err != nil {
		return nil, err
	}
	h, err := ParseHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, name, err)
	}
	if h.DataEnd != off {
		return nil, fmt.Errorf("%w: %s: header says data ends at %d, footer at %d", ErrCorrupt, name, h.DataEnd, off)
	}
	return h, nil
}

// StoreSource reads data blocks straight from shared storage with
// block-granular GetRange calls. The core package layers the SSD cache on
// top; StoreSource is the cache-miss path and the test path.
type StoreSource struct {
	Store storage.ObjectStore
	Name  string
	Index []BlockInfo
}

// NewStoreSource builds a source for the named object using the parsed
// header's block index.
func NewStoreSource(store storage.ObjectStore, name string, h *Header) *StoreSource {
	return &StoreSource{Store: store, Name: name, Index: h.BlockIndex}
}

// FetchBlock implements BlockSource.
func (s *StoreSource) FetchBlock(i uint32) ([]byte, error) {
	if int(i) >= len(s.Index) {
		return nil, fmt.Errorf("run: block %d out of range (%d blocks)", i, len(s.Index))
	}
	bi := s.Index[i]
	return s.Store.GetRange(s.Name, int64(bi.Off), int64(bi.Len))
}

// Release implements BlockSource (no-op: nothing is pinned).
func (s *StoreSource) Release(uint32) {}

// Open loads a run's header from shared storage and returns a reader whose
// blocks are fetched directly from the store.
func Open(store storage.ObjectStore, name string) (*Reader, error) {
	h, err := LoadHeader(store, name)
	if err != nil {
		return nil, err
	}
	return NewReader(h, NewStoreSource(store, name, h)), nil
}
