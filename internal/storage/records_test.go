package storage

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// getFaults fails Get of chosen objects with chosen errors.
type getFaults struct {
	ObjectStore
	fail map[string]error
}

func (s getFaults) Get(name string) ([]byte, error) {
	if err := s.fail[name]; err != nil {
		return nil, err
	}
	return s.ObjectStore.Get(name)
}

// decodeV accepts records that start with "v".
func decodeV(data []byte) (string, error) {
	if !strings.HasPrefix(string(data), "v") {
		return "", errors.New("not a v record")
	}
	return string(data), nil
}

func TestSequencedRecords(t *testing.T) {
	const prefix = "x/rec/"
	errRead := errors.New("transient read failure")
	cases := []struct {
		name    string
		records []string         // the data of records 1..n
		fail    map[uint64]error // Get failures by sequence
		wantRec string
		wantSeq uint64
		wantOK  bool
		wantErr error
	}{
		{name: "empty prefix is not found"},
		{name: "newest valid wins", records: []string{"v1", "v2", "v3"}, wantRec: "v3", wantSeq: 3, wantOK: true},
		{name: "undecodable newest is skipped", records: []string{"v1", "v2", "torn"}, wantRec: "v2", wantSeq: 3, wantOK: true},
		{name: "none decodes", records: []string{"torn", "torn"}, wantSeq: 2},
		{name: "racing prune is skipped", records: []string{"v1", "v2"}, fail: map[uint64]error{2: ErrNotExist}, wantRec: "v1", wantSeq: 2, wantOK: true},
		{name: "read error surfaces", records: []string{"v1", "v2"}, fail: map[uint64]error{2: errRead}, wantSeq: 2, wantErr: errRead},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mem := NewMemStore(LatencyModel{})
			store := getFaults{ObjectStore: mem, fail: map[string]error{}}
			if err := mem.Put("x/other", []byte("v-outside")); err != nil {
				t.Fatal(err)
			}
			for i, data := range c.records {
				if err := mem.Put(RecordName(prefix, uint64(i+1)), []byte(data)); err != nil {
					t.Fatal(err)
				}
			}
			for seq, err := range c.fail {
				store.fail[RecordName(prefix, seq)] = err
			}
			rec, seq, ok, err := LoadRecord(store, prefix, decodeV)
			if !errors.Is(err, c.wantErr) || rec != c.wantRec || seq != c.wantSeq || ok != c.wantOK {
				t.Fatalf("LoadRecord = (%q, %d, %v, %v), want (%q, %d, %v, %v)",
					rec, seq, ok, err, c.wantRec, c.wantSeq, c.wantOK, c.wantErr)
			}
			if err != nil {
				return
			}
			// The next write lands past every listed record, and the
			// prune leaves exactly the two newest.
			for next := seq + 1; next <= seq+3; next++ {
				if failed, err := WriteRecord(store, prefix, next, []byte("vnext")); err != nil || failed != 0 {
					t.Fatalf("WriteRecord(%d) = (%d, %v)", next, failed, err)
				}
			}
			names, err := mem.List(prefix)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{RecordName(prefix, seq+2), RecordName(prefix, seq+3)}; !slices.Equal(names, want) {
				t.Fatalf("after writes: %v, want %v", names, want)
			}
			if rec, got, ok, err := LoadRecord(store, prefix, decodeV); rec != "vnext" || got != seq+3 || !ok || err != nil {
				t.Fatalf("reload = (%q, %d, %v, %v)", rec, got, ok, err)
			}
		})
	}
}

// TestWriteRecordCountsPruneFailures: a write whose prune deletes fail
// still succeeds and reports each failed delete.
func TestWriteRecordCountsPruneFailures(t *testing.T) {
	mem := NewMemStore(LatencyModel{})
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := WriteRecord(mem, "p/", seq, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Put(RecordName("p/", 1), []byte("v")); err != nil { // a prune that never happened
		t.Fatal(err)
	}
	store := NewFaultStore(mem, 1) // the Put passes, every Delete fails
	failed, err := WriteRecord(store, "p/", 4, []byte("v"))
	if err != nil || failed != 2 {
		t.Fatalf("WriteRecord = (%d, %v), want 2 failed deletes and no error", failed, err)
	}
	if _, err := WriteRecord(mem, "p/", 4, []byte("v")); !errors.Is(err, ErrExists) {
		t.Fatalf("rewriting a taken sequence: err = %v, want ErrExists", err)
	}
}
