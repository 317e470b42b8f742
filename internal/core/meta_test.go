package core

import (
	"errors"
	"testing"

	"umzi/internal/storage"
	"umzi/internal/types"
)

func TestMetaRecordsPruned(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	// Every evolve writes a meta record; only the two newest survive.
	for c := uint64(1); c <= 6; c++ {
		groom(t, ix, m, c, recsSeq(4, 2, 0))
		postGroom(t, ix, m, types.PSN(c), c, c)
	}
	names, err := ix.store.List("t/meta/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) > 2 {
		t.Errorf("%d meta records retained, want <= 2: %v", len(names), names)
	}
	// The newest record carries the final watermark.
	covered, psn, _, ok, err := ix.readMeta()
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if covered != 6 || psn != 6 {
		t.Errorf("meta = (covered %d, psn %d), want (6, 6)", covered, psn)
	}
}

func TestMetaRecoverySkipsCorruptRecord(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	groom(t, ix, m, 1, recsSeq(4, 2, 0))
	postGroom(t, ix, m, 1, 1, 1)
	// A corrupt meta record with a higher sequence than the real one.
	if err := ix.store.Put(metaName("t", 999999), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	covered, psn, _, ok, err := ix.readMeta()
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if covered != 1 || psn != 1 {
		t.Errorf("readMeta skipped to (%d,%d), want the last valid (1,1)", covered, psn)
	}
	// Recovery also works end to end.
	ix2 := reopen(t, ix)
	if got := ix2.IndexedPSN(); got != 1 {
		t.Errorf("recovered PSN = %d, want 1", got)
	}
}

// TestMetaSeqPastUnreadableNewest: a meta record that does not decode
// (an interrupted write) still takes its name, so the first evolve after
// a reopen must write past it rather than collide with it on write-once
// ErrExists.
func TestMetaSeqPastUnreadableNewest(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	groom(t, ix, m, 1, recsSeq(4, 2, 0))
	postGroom(t, ix, m, 1, 1, 1)
	_, _, seq, _, err := ix.readMeta()
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.store.Put(metaName("t", seq+1), []byte("torn")); err != nil {
		t.Fatal(err)
	}
	ix2 := reopen(t, ix)
	groom(t, ix2, m, 2, recsSeq(4, 2, 0))
	postGroom(t, ix2, m, 2, 2, 2)
	covered, psn, newSeq, ok, err := ix2.readMeta()
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if covered != 2 || psn != 2 || newSeq <= seq+1 {
		t.Errorf("meta record %d = (covered %d, psn %d), want a record past %d holding (2, 2)", newSeq, covered, psn, seq+1)
	}
}

// failGetStore fails every Get of one object.
type failGetStore struct {
	storage.ObjectStore
	name string
}

var errInjectedRead = errors.New("injected read failure")

func (s failGetStore) Get(name string) ([]byte, error) {
	if name == s.name {
		return nil, errInjectedRead
	}
	return s.ObjectStore.Get(name)
}

// TestMetaReadErrorFailsOpen: a meta record that exists but cannot be
// read fails recovery; Open must not quietly recover from an older
// record.
func TestMetaReadErrorFailsOpen(t *testing.T) {
	ix := newTestIndex(t, nil)
	m := newModel()
	for c := uint64(1); c <= 2; c++ {
		groom(t, ix, m, c, recsSeq(4, 2, 0))
		postGroom(t, ix, m, types.PSN(c), c, c)
	}
	names, err := ix.store.List("t/meta/")
	if err != nil || len(names) < 2 {
		t.Fatalf("meta records %v, err %v; want two", names, err)
	}
	cfg := ix.cfg
	cfg.Store = failGetStore{cfg.Store, names[len(names)-1]}
	ix2, err := Open(cfg)
	if err == nil {
		ix2.Close()
	}
	if !errors.Is(err, errInjectedRead) {
		t.Fatalf("Open over an unreadable newest meta record: err = %v, want the read failure", err)
	}
	if _, _, _, err := InspectMeta(cfg.Store, "t"); !errors.Is(err, errInjectedRead) {
		t.Fatalf("InspectMeta: err = %v, want the read failure", err)
	}
}

func TestSetCachedLevelClamps(t *testing.T) {
	ix := newTestIndex(t, nil)
	ix.SetCachedLevel(-99)
	if got := ix.CachedLevel(); got != -1 {
		t.Errorf("low clamp = %d, want -1", got)
	}
	ix.SetCachedLevel(99)
	if got := ix.CachedLevel(); got != ix.MaxLevel() {
		t.Errorf("high clamp = %d, want %d", got, ix.MaxLevel())
	}
}

func TestMinLiveGroomedBlock(t *testing.T) {
	ix := newTestIndex(t, nil)
	if _, ok := ix.MinLiveGroomedBlock(); ok {
		t.Error("empty index reported a live groomed block")
	}
	m := newModel()
	for c := uint64(3); c <= 5; c++ { // start at 3 to make Min visible
		groom(t, ix, m, c, recsSeq(4, 2, 0))
	}
	min, ok := ix.MinLiveGroomedBlock()
	if !ok || min != 3 {
		t.Errorf("MinLiveGroomedBlock = (%d,%v), want (3,true)", min, ok)
	}
	// Merge everything: the merged run spans [3,5], min stays 3.
	if err := ix.Quiesce(); err != nil {
		t.Fatal(err)
	}
	min, ok = ix.MinLiveGroomedBlock()
	if !ok || min != 3 {
		t.Errorf("after merge: MinLiveGroomedBlock = (%d,%v), want (3,true)", min, ok)
	}
	// Evolve everything: groomed list empties.
	postGroom(t, ix, m, 1, 3, 5)
	if _, ok := ix.MinLiveGroomedBlock(); ok {
		t.Error("fully evolved index still reports a live groomed block")
	}
}
