package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"umzi"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if vals[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
}

// The quoted tail is the highest percentile that still has at least ten
// samples beyond it.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 50 && float64(c.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond", c.n, got)
		}
	}
}

func TestSummarizeRounds(t *testing.T) {
	var s samples
	for round, base := range []float64{100, 110, 120} {
		for i := 0; i < 5; i++ {
			s.add(time.Duration(base+float64(i)), round+1)
		}
	}
	sum := s.summarize(1)
	if sum.N != 15 || sum.P50 != 112 {
		t.Fatalf("pooled: n=%d p50=%v", sum.N, sum.P50)
	}
	if want := []float64{102, 112, 122}; !reflect.DeepEqual(sum.RoundP50s, want) {
		t.Fatalf("round medians %v, want %v", sum.RoundP50s, want)
	}
	if want := 20.0 / 112; math.Abs(sum.RoundSpread-want) > 1e-12 {
		t.Fatalf("round spread %v, want %v", sum.RoundSpread, want)
	}
}

// An open-loop schedule fixes due times up front: a stall makes later
// operations late, it does not move their due times.
func TestPacerDueAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	p := newPacer(start, 100) // every 10ms
	now := start
	var slept []time.Duration
	clock := func() time.Time { return now }
	sleep := func(d time.Duration) { slept = append(slept, d); now = now.Add(d) }

	if due := p.wait(0, clock, sleep); !due.Equal(start) || len(slept) != 0 {
		t.Fatalf("op 0: due %v, slept %v", due, slept)
	}
	now = now.Add(3 * time.Millisecond) // op 0 took 3ms
	if due := p.wait(1, clock, sleep); !due.Equal(start.Add(10*time.Millisecond)) || slept[0] != 7*time.Millisecond {
		t.Fatalf("op 1: due %v, slept %v", due, slept)
	}
	now = now.Add(25 * time.Millisecond) // op 1 stalled: now at 35ms
	due2 := p.wait(2, clock, sleep)
	due3 := p.wait(3, clock, sleep)
	if !due2.Equal(start.Add(20*time.Millisecond)) || !due3.Equal(start.Add(30*time.Millisecond)) || len(slept) != 1 {
		t.Fatalf("ops 2,3: due %v %v, slept %v", due2, due3, slept)
	}
	want := []float64{0, 0, float64(15 * time.Millisecond), float64(5 * time.Millisecond)}
	if !reflect.DeepEqual(p.late, want) {
		t.Fatalf("lateness %v, want %v", p.late, want)
	}
}

func TestStoreDecoratorMatchesMemStore(t *testing.T) {
	mem := umzi.NewMemStore(umzi.LatencyModel{})
	s := newTracedStore(mem, newTracer())
	for _, o := range []struct {
		name string
		size int
	}{
		{"tbl/t/wal/seg-0000000000000001", 100},
		{"tbl/t/groomed/block-000000000001", 2000},
		{"tbl/t/idx/z1/run-00000001-L0-1-1", 300},
		{"tbl/t/catalog/000000000001", 40},
	} {
		if err := s.Put(o.name, make([]byte, o.size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("tbl/t/catalog/000000000001", []byte("again")); err == nil {
		t.Fatal("second Put of one name succeeded")
	}
	if _, err := s.Get("tbl/t/groomed/block-000000000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRange("tbl/t/idx/z1/run-00000001-L0-1-1", 10, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List("tbl/"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("tbl/t/catalog/000000000001"); err != nil {
		t.Fatal(err)
	}
	c, st := s.counts(), mem.Stats().Snapshot()
	if c[scPutBytes] != st.BytesWritten || c[scPutOps] != st.Writes {
		t.Errorf("puts: decorator %d B / %d ops, MemStore %d B / %d ops", c[scPutBytes], c[scPutOps], st.BytesWritten, st.Writes)
	}
	if c[scGetBytes] != st.BytesRead || c[scGetOps]+c[scRangeGetOps] != st.Reads {
		t.Errorf("gets: decorator %d B / %d ops, MemStore %d B / %d ops", c[scGetBytes], c[scGetOps]+c[scRangeGetOps], st.BytesRead, st.Reads)
	}
	if c[scDelOps] != st.Deletes || c[scListOps] != 1 {
		t.Errorf("deletes %d (MemStore %d), lists %d", c[scDelOps], st.Deletes, c[scListOps])
	}
	if c[scPutWAL] != 100 || c[scPutBlock] != 2000 || c[scPutRun] != 300 || c[scPutMeta] != 40 {
		t.Errorf("put classes: wal %d block %d run %d meta %d", c[scPutWAL], c[scPutBlock], c[scPutRun], c[scPutMeta])
	}
	if n := s.tr.Load().count(); n != 9 {
		t.Errorf("%d spans for 9 store calls", n)
	}
}

func TestOracleRowChecks(t *testing.T) {
	o := newOracle(7, 10, 1000)
	g := newBatchGen(o, 7, 0.3)
	var rows []umzi.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, g.next(25)...)
	}
	if o.writes.Load() != 500 || o.keys.Load() >= 500 || o.keys.Load() < 300 {
		t.Fatalf("writes %d keys %d", o.writes.Load(), o.keys.Load())
	}
	last := rows[len(rows)-1]
	key := o.keyOf(last[colDevice].Int(), last[colMsg].Int())
	if !o.checkRow(last, o.version[key].Load()) || !o.checkRow(last, 0) {
		t.Fatal("a generated row does not pass its own check")
	}
	bad := append(umzi.Row(nil), last...)
	bad[colValue] = umzi.F64(last[colValue].Float() + 1)
	if o.checkRow(bad, 0) {
		t.Fatal("a row with a wrong value passed")
	}
	all := o.expectAgg(0)
	if n, _ := all.totals(); n != o.keys.Load() {
		t.Fatalf("oracle counts %d live rows for %d keys", n, o.keys.Load())
	}
}

func quickOptions(t *testing.T) options {
	return options{seed: 42, seconds: quickSeconds, tmp: t.TempDir()}
}

// All four workloads, untraced and traced, at the -quick scale: results
// are correct, every declared metric is emitted, and the whole thing
// stays well inside ten seconds.
func TestQuickAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w.Name, quickOptions(t), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: attempted %d failed %d: %v", w.Name, traced, res.Attempted, res.Failed, res.Failures)
			}
			line, err := res.lastLine()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var parsed struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatal(err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(parsed.Metrics) != want {
				t.Fatalf("%s traced=%v: %d metrics on the last line, want %d", w.Name, traced, len(parsed.Metrics), want)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("%s traced=%v: %s = %v, must be positive", w.Name, traced, d.Name, v)
				}
			}
			if traced && !w.Daemons {
				sum := 0.0
				for _, s := range []string{"commit", "groom", "postgroom", "syncindex"} {
					sum += res.Metrics["wildfire."+s+"_share"].Value
				}
				if math.Abs(sum-1) > 0.05 {
					t.Errorf("%s: stage shares sum to %v", w.Name, sum)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("quick suite took %v", d)
	}
}

// The same seed gives the same operations and, where nothing runs on a
// timer, the same bytes.
func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		if w.Daemons {
			continue
		}
		a, err := runWorkload(context.Background(), w.Name, quickOptions(t), false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(context.Background(), w.Name, quickOptions(t), false)
		if err != nil {
			t.Fatal(err)
		}
		if a.OpHash != b.OpHash {
			t.Errorf("%s: op hashes %s and %s", w.Name, a.OpHash, b.OpHash)
		}
		for _, m := range []string{"write_amp", "store_bytes_per_user_byte"} {
			if x, y := a.Metrics[m].Value, b.Metrics[m].Value; math.Float64bits(x) != math.Float64bits(y) {
				t.Errorf("%s: %s %v and %v", w.Name, m, x, y)
			}
		}
		other := quickOptions(t)
		other.seed++
		c, err := runWorkload(context.Background(), w.Name, other, false)
		if err != nil {
			t.Fatal(err)
		}
		if c.OpHash == a.OpHash {
			t.Errorf("%s: another seed gave the same operations", w.Name)
		}
	}
}

// BENCHMARK.json at the repository root is the manifest generated from
// the metric and workload tables.
func TestManifestMatchesFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from `go run . -print-manifest`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestCompareSuites(t *testing.T) {
	mk := func(get, rate float64) *suite {
		r := &result{Workload: "w", Metrics: metricSet{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metric{1, d.Unit}
		}
		r.Metrics["get_p50_us"] = metric{get, "us"}
		r.Metrics["scan_rows_per_s"] = metric{rate, "1/s"}
		return &suite{Runs: []*result{r}}
	}
	if _, bad := compareSuites(mk(100, 1000), mk(105, 950), false); len(bad) != 0 {
		t.Errorf("within bounds, yet %v", bad)
	}
	_, bad := compareSuites(mk(100, 1000), mk(140, 600), false)
	if len(bad) != 2 {
		t.Fatalf("latency up 40%% and rate down 40%%: %v", bad)
	}
	if _, bad := compareSuites(mk(140, 600), mk(100, 1000), false); len(bad) != 0 {
		t.Errorf("an improvement was flagged: %v", bad)
	}
	if _, bad := compareSuites(mk(140, 600), mk(100, 1000), true); len(bad) != 2 {
		t.Errorf("selfcheck must flag disagreement in either direction: %v", bad)
	}
}
