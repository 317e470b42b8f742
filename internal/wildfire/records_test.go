package wildfire

import (
	"bytes"
	"testing"

	"umzi/internal/storage"
)

// Sequenced records as the engine writes them: the groom watermark and
// the index catalog (storage.LoadRecord, storage.WriteRecord).

// TestWALMarkSeqPastUnreadableNewest: a mark record that does not decode
// (an interrupted write) still takes its name, so the first groom after
// a reopen must publish its mark past it rather than collide with it on
// write-once ErrExists.
func TestWALMarkSeqPastUnreadableNewest(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{Table: iotTable(), Index: iotIndex(), Store: store}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for dev := int64(0); dev < 2; dev++ {
		if err := e.upsert(row(dev, 0, 1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
	}
	_, _, seq, ok, err := LoadWALMark(store, "sensors")
	if err != nil || !ok {
		t.Fatalf("mark after two grooms: ok=%v err=%v", ok, err)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	torn := storage.RecordName(walMarkPrefix("sensors"), seq+1)
	if err := store.Put(torn, []byte("torn")); err != nil {
		t.Fatal(err)
	}

	e, err = openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.upsert(row(9, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.groomCount(); err != nil {
		t.Fatalf("first groom after reopen: %v", err)
	}
	mark, _, newSeq, ok, err := LoadWALMark(store, "sensors")
	if err != nil || !ok {
		t.Fatalf("mark after reopen: ok=%v err=%v", ok, err)
	}
	if newSeq != seq+2 || mark != e.currentWALMark() {
		t.Fatalf("mark record %d holds %d, want record %d holding %d", newSeq, mark, seq+2, e.currentWALMark())
	}
}

// TestEndTSSidecarDeterministic: two engines fed the same rows store
// byte-identical endTS sidecars, however their maps iterate.
func TestEndTSSidecarDeterministic(t *testing.T) {
	sidecar := func() []byte {
		e := newTestEngine(t, nil)
		for version := 0; version < 2; version++ {
			for dev := int64(0); dev < 6; dev++ {
				for msg := int64(0); msg < 10; msg++ {
					if err := e.upsert(row(dev, msg, float64(version), msg%3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := e.groomCount(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.postGroom(); err != nil {
				t.Fatal(err)
			}
		}
		data, err := e.store.Get(endTSName(e.table.Name, 2))
		if err != nil {
			t.Fatal(err)
		}
		updates, err := decodeEndTSSidecar(data)
		if err != nil || len(updates) != 60 {
			t.Fatalf("sidecar holds %d updates (err %v), want 60", len(updates), err)
		}
		return data
	}
	if a, b := sidecar(), sidecar(); !bytes.Equal(a, b) {
		t.Fatal("same rows stored different endTS sidecar bytes")
	}
}

// FuzzIndexCatalog: the catalog decoder never panics, and a record it
// accepts re-encodes byte-identically.
func FuzzIndexCatalog(f *testing.F) {
	f.Add(encodeIndexCatalog(nil))
	f.Add(encodeIndexCatalog([]IndexCatalogEntry{
		{Name: "", Spec: iotIndex()},
		{Name: "by_day", Spec: IndexSpec{Equality: []string{"day"}, Sort: []string{"device", "msg"}, HashBits: 4}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeIndexCatalog(data)
		if err != nil {
			return
		}
		if got := encodeIndexCatalog(entries); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, got)
		}
	})
}
