package wildfire

import (
	"errors"
	"strings"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/keyenc"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// parkStore parks the Put of every groomed data block: the Put sends the
// block's name on parked, then fails with the error it receives on
// release, or goes through to the backing store on nil.
type parkStore struct {
	storage.ObjectStore
	parked  chan string
	release chan error
}

func (s *parkStore) Put(name string, data []byte) error {
	if strings.Contains(name, "/groomed/") {
		s.parked <- name
		if err := <-s.release; err != nil {
			return err
		}
	}
	return s.ObjectStore.Put(name, data)
}

// checkAcked asserts that a point get, a forced zone scan and an
// index-selected executor scan at MaxTS+IncludeLive each return exactly
// the acknowledged rows.
func checkAcked(t *testing.T, stage string, e *shard, oracle map[string]Row) {
	t.Helper()
	opts := QueryOptions{TS: types.MaxTS, IncludeLive: true}
	same := func(a, b Row) bool {
		for c := range b {
			if keyenc.Compare(a[c], b[c]) != 0 {
				return false
			}
		}
		return true
	}
	for _, want := range oracle {
		rec, found, err := getOn(e, "", []keyenc.Value{want[0]}, []keyenc.Value{want[1]}, opts)
		if err != nil || !found || !same(rec.Row, want) {
			t.Fatalf("%s: point get %v: found=%v err=%v row=%v", stage, want[:2], found, err, rec.Row)
		}
	}
	scan := func(what string, p exec.Plan, opts QueryOptions, want map[string]Row) {
		t.Helper()
		res, err := execute(e, p, opts)
		if err != nil {
			t.Fatalf("%s: %s: %v", stage, what, err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("%s: %s returned %d rows, want %d", stage, what, len(res.Rows), len(want))
		}
		for _, r := range res.Rows {
			if w, ok := want[e.table.pkEncoding(Row(r))]; !ok || !same(Row(r), w) {
				t.Fatalf("%s: %s returned %v, not an acknowledged row", stage, what, r)
			}
		}
	}
	forced := opts
	forced.NoIndexSelection = true
	scan("forced zone scan", exec.Plan{}, forced, oracle)
	for _, dev := range []int64{1, 2} {
		p := exec.Plan{Filter: exec.Eq("device", keyenc.I64(dev))}
		if _, _, ok := e.chooseIndex(p.Filter); !ok {
			t.Fatalf("device = %d selects no index", dev)
		}
		want := map[string]Row{}
		for pk, r := range oracle {
			if r[0].Int() == dev {
				want[pk] = r
			}
		}
		scan("index-selected scan", p, opts, want)
	}
}

// TestGroomHandOffKeepsAckedRowsVisible parks a groom's block Put, the
// window in which its records have left the committed log but are in no
// groomed block yet: every read path must still see each acknowledged
// row, while parked, after the Put fails and the records are requeued,
// and after a groom that succeeds.
func TestGroomHandOffKeepsAckedRowsVisible(t *testing.T) {
	ps := &parkStore{
		ObjectStore: storage.NewMemStore(storage.LatencyModel{}),
		parked:      make(chan string),
		release:     make(chan error),
	}
	e := newTestEngine(t, func(c *ShardedConfig) { c.Store = ps })
	oracle := map[string]Row{}
	upsert := func(rows ...Row) {
		t.Helper()
		if err := e.upsert(rows...); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			oracle[e.table.pkEncoding(r)] = r
		}
	}
	// groom runs one groom whose block Put parks and then gets release.
	groom := func(stage string, release error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { _, err := e.groomCount(); done <- err }()
		<-ps.parked
		checkAcked(t, stage, e, oracle)
		ps.release <- release
		return <-done
	}

	// Earlier versions in the post-groomed and the pending groomed zone.
	upsert(row(1, 0, 1, 0), row(1, 1, 1, 1), row(2, 0, 1, 2))
	if err := groom("first groom", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	upsert(row(1, 0, 2, 0), row(1, 2, 2, 1))
	if err := groom("second groom", nil); err != nil {
		t.Fatal(err)
	}

	// The batch under test overwrites keys of both zones and adds new ones.
	upsert(row(1, 1, 3, 1), row(1, 3, 3, 2))
	upsert(row(2, 0, 3, 2), row(1, 0, 3, 0))
	injected := errors.New("injected put failure")
	if err := groom("block put parked", injected); !errors.Is(err, injected) {
		t.Fatalf("groom with a failed put returned %v", err)
	}
	checkAcked(t, "requeued after the failed put", e, oracle)
	if err := groom("retry parked", nil); err != nil {
		t.Fatal(err)
	}
	if n := e.liveCount(); n != 0 {
		t.Fatalf("live zone holds %d records after the retry", n)
	}
	checkAcked(t, "groomed", e, oracle)
}
