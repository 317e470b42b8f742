package wildfire

import (
	"context"
	"testing"

	"umzi/internal/keyenc"
	"umzi/internal/types"
)

func TestFetchErrors(t *testing.T) {
	e := newTestEngine(t, nil)
	ingestAndGroom(t, e, row(1, 1, 1.0, 100))
	// Live-zone RIDs have no blocks.
	if _, err := e.fetch(context.Background(), types.RID{Zone: types.ZoneLive, Block: 1}); err == nil {
		t.Error("Fetch of live-zone RID accepted")
	}
	// Offset out of range.
	if _, err := e.fetch(context.Background(), types.RID{Zone: types.ZoneGroomed, Block: 1, Offset: 999}); err == nil {
		t.Error("Fetch past block size accepted")
	}
	// Missing block.
	if _, err := e.fetch(context.Background(), types.RID{Zone: types.ZonePostGroomed, Block: 42, Offset: 0}); err == nil {
		t.Error("Fetch of missing block accepted")
	}
}

func TestPSNMetaRoundTrip(t *testing.T) {
	enc := encodePSNMeta(3, 9, []uint64{100, 101})
	lo, hi, blocks, err := decodePSNMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 || hi != 9 || len(blocks) != 2 || blocks[0] != 100 || blocks[1] != 101 {
		t.Errorf("round trip = (%d,%d,%v)", lo, hi, blocks)
	}
	for _, bad := range [][]byte{nil, []byte("short"), enc[:20], append([]byte("XXXXXXXX"), enc[8:]...)} {
		if _, _, _, err := decodePSNMeta(bad); err == nil {
			t.Errorf("corrupt PSN meta accepted: %x", bad)
		}
	}
}

func TestEndTSSidecarRoundTrip(t *testing.T) {
	updates := []endTSUpdate{
		{rid: types.RID{Zone: types.ZonePostGroomed, Block: 1, Offset: 2}, ts: 100},
		{rid: types.RID{Zone: types.ZonePostGroomed, Block: 3, Offset: 4}, ts: 200},
	}
	enc := encodeEndTSSidecar(updates)
	got, err := decodeEndTSSidecar(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(updates) {
		t.Fatalf("decoded %d entries", len(got))
	}
	for i, u := range updates {
		if got[i] != u {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], u)
		}
	}
	// Anything the encoder cannot have written is rejected: recovery
	// must fail rather than drop overrides.
	groomedRID := encodeEndTSSidecar([]endTSUpdate{{rid: types.RID{Zone: types.ZoneGroomed, Block: 1}, ts: 1}})
	for name, bad := range map[string][]byte{
		"nil":        nil,
		"garbage":    []byte("garbagegarbage"),
		"truncated":  enc[:len(enc)-4],
		"trailing":   append(append([]byte{}, enc...), 0),
		"count":      append(append([]byte{}, enc[:11]...), 3),
		"groomedRID": groomedRID,
	} {
		if _, err := decodeEndTSSidecar(bad); err == nil {
			t.Errorf("%s sidecar accepted", name)
		}
	}
}

func TestPostGroomRetriesAfterFailure(t *testing.T) {
	// A post-groom that cannot publish (duplicate object name injected)
	// must put the drained blocks back so a later call succeeds.
	e := newTestEngine(t, nil)
	ingestAndGroom(t, e, row(1, 1, 1.0, 100))
	// Occupy the PSN meta name the next post-groom will try to write.
	if err := e.store.Put(psnMetaName(e.table.Name, 1), []byte("squatter")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.postGroom(); err == nil {
		t.Fatal("post-groom should fail on the occupied meta name")
	}
	// Clear the squatter; the retry must pick the same blocks up again.
	if err := e.store.Delete(psnMetaName(e.table.Name, 1)); err != nil {
		t.Fatal(err)
	}
	psn, err := e.postGroom()
	if err != nil {
		t.Fatal(err)
	}
	if psn != 1 {
		t.Fatalf("retry PSN = %d, want 1", psn)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	eq, sortv := key(1, 1)
	if _, found, _ := getOn(e, "", eq, sortv, QueryOptions{}); !found {
		t.Error("record lost across post-groom retry")
	}
}

func TestLiveLookupPrefersLatestCommit(t *testing.T) {
	e := newTestEngine(t, nil)
	// Two ungroomed versions of the same key in the committed log.
	if err := e.upsert(row(1, 1, 1.0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := e.upsert(row(1, 1, 2.0, 100)); err != nil {
		t.Fatal(err)
	}
	got, _ := e.liveLookup([]keyenc.Value{keyenc.I64(1)}, []keyenc.Value{keyenc.I64(1)}, QueryOptions{IncludeLive: true})
	if got == nil || got[2].Float() != 2.0 {
		t.Errorf("liveLookup = %v, want latest commit 2.0", got)
	}
}

func TestPartitionOfStability(t *testing.T) {
	e := newTestEngine(t, func(c *ShardedConfig) { c.Partitions = 8 })
	r := row(1, 1, 1.0, 100)
	p := e.partitionOf(r)
	for i := 0; i < 10; i++ {
		if e.partitionOf(r) != p {
			t.Fatal("partitionOf not deterministic")
		}
	}
	if p < 0 || p >= 8 {
		t.Fatalf("partition %d out of range", p)
	}
	// No partition key: everything lands in bucket 0.
	e2 := newTestEngine(t, func(c *ShardedConfig) { c.Table.PartitionKey = "" })
	if e2.partitionOf(r) != 0 {
		t.Error("no partition key must map to bucket 0")
	}
}
