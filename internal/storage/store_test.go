package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// storeImpls returns a fresh instance of every ObjectStore implementation
// so the contract tests run against all of them.
func storeImpls(t *testing.T) map[string]ObjectStore {
	t.Helper()
	fs, err := NewFSStore(t.TempDir(), LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ObjectStore{
		"mem": NewMemStore(LatencyModel{}),
		"fs":  fs,
	}
}

func TestStorePutGet(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello shared storage")
			if err := s.Put("a/b/obj1", data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("a/b/obj1")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("Get = %q, want %q", got, data)
			}
			sz, err := s.Size("a/b/obj1")
			if err != nil {
				t.Fatal(err)
			}
			if sz != int64(len(data)) {
				t.Errorf("Size = %d, want %d", sz, len(data))
			}
		})
	}
}

func TestStoreWriteOnce(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("obj", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			err := s.Put("obj", []byte("v2"))
			if !errors.Is(err, ErrExists) {
				t.Errorf("second Put: err = %v, want ErrExists (objects are immutable)", err)
			}
			got, _ := s.Get("obj")
			if string(got) != "v1" {
				t.Errorf("object mutated to %q", got)
			}
		})
	}
}

func TestStoreGetMissing(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Get missing: %v, want ErrNotExist", err)
			}
			if _, err := s.Size("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Size missing: %v, want ErrNotExist", err)
			}
			if _, err := s.GetRange("nope", 0, 1); !errors.Is(err, ErrNotExist) {
				t.Errorf("GetRange missing: %v, want ErrNotExist", err)
			}
		})
	}
}

func TestStoreGetRange(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("obj", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetRange("obj", 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "3456" {
				t.Errorf("GetRange = %q, want 3456", got)
			}
			// Whole-object range.
			got, err = s.GetRange("obj", 0, 10)
			if err != nil || string(got) != "0123456789" {
				t.Errorf("full GetRange = %q, %v", got, err)
			}
			// Out of bounds.
			if _, err := s.GetRange("obj", 8, 3); !errors.Is(err, ErrRange) {
				t.Errorf("oob GetRange: %v, want ErrRange", err)
			}
			if _, err := s.GetRange("obj", -1, 2); !errors.Is(err, ErrRange) {
				t.Errorf("negative offset: %v, want ErrRange", err)
			}
		})
	}
}

func TestStoreListPrefix(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []string{"runs/z1/r2", "runs/z1/r1", "runs/z2/r3", "meta/m1"} {
				if err := s.Put(n, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.List("runs/z1/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"runs/z1/r1", "runs/z1/r2"}
			if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
				t.Errorf("List = %v, want %v (sorted)", got, want)
			}
			all, err := s.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 4 {
				t.Errorf("List(\"\") = %v, want 4 objects", all)
			}
		})
	}
}

func TestStoreDelete(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("obj", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("obj"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("obj"); !errors.Is(err, ErrNotExist) {
				t.Error("object still readable after delete")
			}
			// Deleting a missing object is benign (GC races).
			if err := s.Delete("obj"); err != nil {
				t.Errorf("repeat delete: %v", err)
			}
			// The name can be reused after deletion.
			if err := s.Put("obj", []byte("y")); err != nil {
				t.Errorf("Put after delete: %v", err)
			}
		})
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < 20; j++ {
						n := fmt.Sprintf("w%d/o%d", i, j)
						if err := s.Put(n, []byte(n)); err != nil {
							t.Error(err)
							return
						}
						if got, err := s.Get(n); err != nil || string(got) != n {
							t.Errorf("Get(%s) = %q, %v", n, got, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			names, err := s.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 160 {
				t.Errorf("got %d objects, want 160", len(names))
			}
		})
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore(LatencyModel{})
	data := []byte("abc")
	if err := s.Put("o", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // caller mutates its buffer after Put
	got, _ := s.Get("o")
	if string(got) != "abc" {
		t.Error("store must copy on Put")
	}
	got[0] = 'Y' // caller mutates the returned buffer
	got2, _ := s.Get("o")
	if string(got2) != "abc" {
		t.Error("store must copy on Get")
	}
}

// TestGetReturnsCallerOwnedSlice: the slice Get returns belongs to the
// caller — a columnar block keeps reading it in place — so writing it
// changes neither the stored object nor what the next Get returns, on
// every store and through the fault-injecting wrapper.
func TestGetReturnsCallerOwnedSlice(t *testing.T) {
	stores := storeImpls(t)
	stores["fault"] = NewFaultStore(NewMemStore(LatencyModel{}), 100)
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("o", []byte("immutable")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("o")
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				got[i] = 'X'
			}
			again, err := s.Get("o")
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != "immutable" {
				t.Fatalf("second Get = %q after the first one's slice was written", again)
			}
		})
	}
}

func TestLatencyModelCharged(t *testing.T) {
	s := NewMemStore(LatencyModel{PerOp: 2 * time.Millisecond})
	if err := s.Put("o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := s.Get("o"); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("5 reads at 2ms PerOp took %v, want >= 10ms", d)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewMemStore(LatencyModel{})
	_ = s.Put("a", make([]byte, 100))
	_, _ = s.Get("a")
	_, _ = s.GetRange("a", 0, 10)
	_ = s.Delete("a")
	st := s.Stats().Snapshot()
	if st.Writes != 1 || st.Reads != 2 || st.Deletes != 1 {
		t.Errorf("counters = %+v", st)
	}
	if st.BytesWritten != 100 || st.BytesRead != 110 {
		t.Errorf("byte counters = %+v", st)
	}
}

func TestFSStoreRejectsEscapingNames(t *testing.T) {
	s, err := NewFSStore(t.TempDir(), LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"../evil", "/abs", "a/../../evil", "."} {
		if err := s.Put(n, []byte("x")); err == nil {
			t.Errorf("Put(%q): want error for escaping name", n)
		}
	}
}

func TestFSStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("zone/run-1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Simulate an indexer crash: reopen the same directory.
	s2, err := NewFSStore(dir, LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("zone/run-1")
	if err != nil || string(got) != "payload" {
		t.Errorf("after reopen: %q, %v", got, err)
	}
	names, _ := s2.List("zone/")
	if len(names) != 1 || names[0] != "zone/run-1" {
		t.Errorf("List after reopen = %v", names)
	}
}
