package wildfire

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"umzi/internal/exec"
	"umzi/internal/obs"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// Post-groomed visibility from endTS: a post-groomed row is visible when
// beginTS <= min(ts, version boundary) < endTS, minus the version's
// sidecar overrides and any key a pending or live version shadows. These
// tests pin the shadow check, the version's ownership of its overrides,
// and the sidecar's fail-loudly decoding.

// checkExec runs p on e and checks the result against the naive
// reference over visible (checkRun).
func checkExec(t *testing.T, e *shard, p exec.Plan, rf refFilter, opts QueryOptions, visible []Row, label string) {
	t.Helper()
	run := func(p exec.Plan) (*exec.Result, error) { return execute(e, p, opts) }
	checkRun(t, label, p, run, naiveExecute(e.table, p, rf, visible))
}

// TestExecuteEndTSMatchesOracle executes on a stale zone version: a query
// that loaded its version just before a groom and a post-groom that
// update post-groomed keys. That post-groom's sidecar overrides the
// stale version's blocks, but only the newer version holds them, so the
// stale one must still see the replaced rows, at MaxTS too. The live arm
// commits updates of post-groomed keys afterwards, which only the shadow
// check removes; so does the pending-block arm before the capture.
func TestExecuteEndTSMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	e := newTestEngine(t, nil)
	td := e.table
	model := map[string]Row{}
	commit := func(rows ...Row) {
		t.Helper()
		if err := e.upsert(0, rows...); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			model[td.pkEncoding(r)] = r
		}
	}
	groom := func(post bool) {
		t.Helper()
		if _, err := e.groomCount(); err != nil {
			t.Fatal(err)
		}
		if !post {
			return
		}
		if _, err := e.postGroom(); err != nil {
			t.Fatal(err)
		}
	}
	update := func(n int) {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = row(rng.Int63n(4), rng.Int63n(6), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
		}
		commit(rows...)
	}
	var all []Row
	for d := int64(0); d < 4; d++ {
		for m := int64(0); m < 6; m++ {
			all = append(all, row(d, m, float64(rng.Int63n(1000)), 100+rng.Int63n(3)))
		}
	}
	commit(all...)
	groom(true)
	update(10) // cross-batch overrides
	groom(true)
	update(10) // pending versions shadowing post-groomed ones, no override yet
	groom(false)

	plans := []exec.Plan{
		{Aggs: []exec.Agg{{Func: exec.Count}, {Func: exec.Sum, Col: "reading"}}},
		{},
	}
	refs := []refFilter{func(Row) bool { return true }, func(Row) bool { return true }}
	for i := 0; i < 6; i++ {
		p, rf := genPlan(rng, 4, 6)
		plans, refs = append(plans, p), append(refs, rf)
	}
	for i, p := range plans {
		checkExec(t, e, p, refs[i], QueryOptions{TS: types.MaxTS}, modelRows(model), fmt.Sprintf("pending q%d", i))
	}

	// A query loads its version here (and holds its epoch, so no block it
	// references is reclaimed); then the zones move on underneath it.
	epoch := e.gate.enter()
	defer e.gate.exit(epoch)
	stale, staleModel := e.zone.Load(), maps.Clone(model)
	update(12)
	groom(true)
	live := map[string]Row{}
	for i := 0; i < 8; i++ {
		r := row(rng.Int63n(4), rng.Int63n(6), float64(rng.Int63n(1000)), 100+rng.Int63n(3))
		if err := e.upsert(0, r); err != nil {
			t.Fatal(err)
		}
		live[td.pkEncoding(r)] = r
	}
	overrides := func(v *zoneVersion) (n int) {
		for _, ovs := range v.endTS {
			n += len(ovs)
		}
		return n
	}
	cur := e.zone.Load()
	if cur.lastGroomTS <= stale.lastGroomTS || overrides(cur) <= overrides(stale) {
		t.Fatal("setup: the groom and post-groom after the capture did not happen")
	}
	e.zone.Store(stale)
	defer e.zone.Store(cur)
	for i, p := range plans {
		checkExec(t, e, p, refs[i], QueryOptions{TS: types.MaxTS}, modelRows(staleModel), fmt.Sprintf("stale MaxTS q%d", i))
		checkExec(t, e, p, refs[i], QueryOptions{TS: types.MaxTS, IncludeLive: true}, modelRows(staleModel, live), fmt.Sprintf("stale MaxTS+live q%d", i))
	}
}

// TestExecuteWinnerInserts: post-groomed rows never enter the executor's
// winner map, so an aggregate over a fully post-groomed table with no live
// rows reconciles nothing; one more groom adds exactly its visible rows.
func TestExecuteWinnerInserts(t *testing.T) {
	e := newTestEngine(t, nil)
	var rows []Row
	for m := int64(0); m < 20; m++ {
		rows = append(rows, row(m%3, m, float64(m), 100+m%2))
	}
	ingestAndGroom(t, e, rows...)
	ingestAndGroom(t, e, row(0, 0, 5, 100), row(1, 1, 6, 101)) // two updates
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	count := exec.Plan{Aggs: []exec.Agg{{Func: exec.Count}}}
	run := func(wantCount, wantInserts int64) {
		t.Helper()
		tr := obs.NewQueryTrace()
		res, err := execute(e, count, QueryOptions{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != wantCount {
			t.Errorf("count = %d, want %d", got, wantCount)
		}
		s := tr.Snapshot()
		if s.WinnerInserts != wantInserts || len(s.Spans) != 1 || s.Spans[0].WinnerInserts != wantInserts {
			t.Errorf("WinnerInserts = %d (spans %+v), want %d", s.WinnerInserts, s.Spans, wantInserts)
		}
		if !strings.Contains(tr.String(), fmt.Sprintf("winner_inserts=%d", wantInserts)) {
			t.Errorf("trace text lacks winner_inserts=%d:\n%s", wantInserts, tr)
		}
	}
	run(20, 0)
	ingestAndGroom(t, e, row(2, 2, 7, 100), row(0, 20, 8, 100), row(1, 21, 9, 101))
	run(22, 3)
}

// TestRecoverRejectsDamagedSidecar: a sidecar that does not decode fails
// recovery and names the object, instead of silently dropping overrides
// (which would make replaced versions visible again). Undetectable damage
// — a flipped bit inside a block ID, offset or timestamp — needs an
// object checksum.
func TestRecoverRejectsDamagedSidecar(t *testing.T) {
	store := storage.NewMemStore(storage.LatencyModel{})
	cfg := ShardedConfig{Table: iotTable(), Index: iotIndex(), Store: store, Replicas: 1}
	e, err := openShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		ingestAndGroom(t, e, row(1, 1, float64(v), 100), row(1, 2, float64(v), 100))
		if _, err := e.postGroom(); err != nil {
			t.Fatal(err)
		}
		if err := e.syncIndex(); err != nil {
			t.Fatal(err)
		}
	}
	e.close()
	names, err := store.List("tbl/" + cfg.Table.Name + "/endts/")
	if err != nil || len(names) != 2 {
		t.Fatalf("sidecars = %v, %v; want 2", names, err)
	}
	replace := func(name string, data []byte) {
		t.Helper()
		if err := store.Delete(name); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	for i, damage := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-5] },     // truncated
		func(b []byte) []byte { b[12] ^= 0xff; return b }, // first entry's zone byte
	} {
		good, err := store.Get(names[i])
		if err != nil {
			t.Fatal(err)
		}
		replace(names[i], damage(append([]byte(nil), good...)))
		if e, err := openShard(cfg); err == nil {
			e.close()
			t.Fatalf("damage %d: recovery accepted a damaged sidecar", i)
		} else if !strings.Contains(err.Error(), names[i]) {
			t.Errorf("damage %d: error does not name %s: %v", i, names[i], err)
		}
		replace(names[i], good)
	}
	e, err = openShard(cfg)
	if err != nil {
		t.Fatalf("recovery with the sidecars restored: %v", err)
	}
	e.close()
}

// TestFetchOverlayAllocs: resolving a sidecar override on the point-get
// path allocates nothing beyond what fetching a plain version does.
func TestFetchOverlayAllocs(t *testing.T) {
	e := newTestEngine(t, nil)
	for v := 0; v < 2; v++ {
		ingestAndGroom(t, e, row(1, 1, float64(v), 100), row(1, 2, float64(v), 100))
		if _, err := e.postGroom(); err != nil {
			t.Fatal(err)
		}
		if err := e.syncIndex(); err != nil {
			t.Fatal(err)
		}
	}
	eq, sortv := key(1, 1)
	cur, found, err := getOn(e, "", eq, sortv, QueryOptions{})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	ctx := context.Background()
	replaced, err := e.fetch(ctx, cur.PrevRID)
	if err != nil {
		t.Fatal(err)
	}
	if replaced.EndTS != cur.BeginTS {
		t.Fatalf("replaced version endTS = %v, want %v (sidecar override)", replaced.EndTS, cur.BeginTS)
	}
	if raceEnabled {
		return // the race detector adds a varying number of allocations
	}
	withOverride := testing.AllocsPerRun(100, func() { e.fetch(ctx, cur.PrevRID) })
	plain := testing.AllocsPerRun(100, func() { e.fetch(ctx, cur.RID) })
	if withOverride > plain {
		t.Errorf("fetch allocs: %v with an override, %v without", withOverride, plain)
	}
}

// FuzzEndTSSidecar: decoding never panics, and whatever it accepts
// re-encodes to the same bytes (so nothing accepted was silently skipped).
func FuzzEndTSSidecar(f *testing.F) {
	f.Add(encodeEndTSSidecar(nil))
	f.Add(encodeEndTSSidecar([]endTSUpdate{
		{rid: types.RID{Zone: types.ZonePostGroomed, Block: 7, Offset: 3}, ts: types.MakeTS(4, 2)},
		{rid: types.RID{Zone: types.ZonePostGroomed, Block: 9, Offset: 0}, ts: types.MakeTS(5, 0)},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		updates, err := decodeEndTSSidecar(data)
		if err != nil {
			return
		}
		if got := encodeEndTSSidecar(updates); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, got)
		}
	})
}

// TestExecuteShadowChecks: a post-groomed row pays the exact key check
// only when its fingerprint hits the pending/live shadow. With no
// shadow there are none; beside live updates of post-groomed keys,
// exactly the updated keys' rows are checked; and when every
// fingerprint collides, every selected post row is.
func TestExecuteShadowChecks(t *testing.T) {
	e := newTestEngine(t, nil)
	var rows []Row
	for m := int64(0); m < 40; m++ {
		rows = append(rows, row(m%4, m, float64(m), 100+m%2))
	}
	ingestAndGroom(t, e, rows...)
	if _, err := e.postGroom(); err != nil {
		t.Fatal(err)
	}
	if err := e.syncIndex(); err != nil {
		t.Fatal(err)
	}
	count := exec.Plan{Aggs: []exec.Agg{{Func: exec.Count}}}
	run := func(opts QueryOptions, wantCount, wantChecks int64) {
		t.Helper()
		tr := obs.NewQueryTrace()
		opts.Trace = tr
		res, err := execute(e, count, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != wantCount {
			t.Errorf("count = %d, want %d", got, wantCount)
		}
		s := tr.Snapshot()
		if s.ShadowChecks != wantChecks || len(s.Spans) != 1 || s.Spans[0].ShadowChecks != wantChecks {
			t.Errorf("ShadowChecks = %d (spans %+v), want %d", s.ShadowChecks, s.Spans, wantChecks)
		}
		if !strings.Contains(tr.String(), fmt.Sprintf("shadow_checks=%d", wantChecks)) {
			t.Errorf("trace text lacks shadow_checks=%d:\n%s", wantChecks, tr)
		}
	}
	run(QueryOptions{}, 40, 0)
	run(QueryOptions{IncludeLive: true}, 40, 0)

	// Three live updates of post-groomed keys and two new keys.
	if err := e.upsert(0, row(0, 0, 1, 100), row(1, 1, 2, 101), row(2, 2, 3, 100), row(0, 40, 4, 100), row(1, 41, 5, 101)); err != nil {
		t.Fatal(err)
	}
	run(QueryOptions{}, 40, 0)
	run(QueryOptions{IncludeLive: true}, 42, 3)

	collideFingerprints = true
	defer func() { collideFingerprints = false }()
	run(QueryOptions{IncludeLive: true}, 42, 40)
	run(QueryOptions{}, 40, 0)
}

// TestExecuteFingerprintCollisions: with every key fingerprint forced
// equal, each probe of the shadow hits and only the exact key check
// tells keys apart; the executor must still return the oracle's rows.
func TestExecuteFingerprintCollisions(t *testing.T) {
	collideFingerprints = true
	defer func() { collideFingerprints = false }()
	t.Run("equivalence", TestExecuteEquivalenceProperty)
	t.Run("endTS", TestExecuteEndTSMatchesOracle)
	t.Run("groupByDict", TestExecuteGroupByDictColumn)
}
