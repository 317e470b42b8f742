package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The harness tests run every figure driver at TinyScale: they verify the
// drivers complete and produce the right series structure. No test
// here compares two measured durations: performance shape lives in
// the benchmark harness, not in tier-1 tests.

func TestFig08Shape(t *testing.T) {
	s := TinyScale()
	res, err := Fig08IndexBuild(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3 (I1,I2,I3)", len(res.Series))
	}
	if len(res.X) != len(s.RunSizes) {
		t.Fatalf("x axis = %d, want %d", len(res.X), len(s.RunSizes))
	}
	for _, series := range res.Series {
		if len(series.Y) != len(res.X) {
			t.Fatalf("%s: %d values, want %d", series.Name, len(series.Y), len(res.X))
		}
		for _, y := range series.Y {
			if y <= 0 {
				t.Fatalf("%s: non-positive normalized time %v", series.Name, y)
			}
		}
	}
	// Baseline cell is 1.0 by construction.
	if y := res.Series[0].Y[0]; y < 0.99 || y > 1.01 {
		t.Errorf("baseline cell = %v, want 1.0", y)
	}
}

func TestFig09Shape(t *testing.T) {
	res, err := Fig09SingleRun(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 { // {seq,rand} x {I1,I2,I3}
		t.Fatalf("series = %d, want 6", len(res.Series))
	}
	for _, s := range res.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s: non-positive normalized time %v", s.Name, y)
			}
		}
	}
}

func TestFig10Shape(t *testing.T) {
	s := TinyScale()
	res, err := Fig10MultiRunSeq(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(res.Series))
	}
	wantX := len(s.BatchSweep) + len(s.RunCountSweep) + len(s.ScanRanges)
	if len(res.X) != wantX {
		t.Fatalf("x axis = %d, want %d", len(res.X), wantX)
	}
	// Series come in (seq, rand) pairs per sweep (a, b, c); each is
	// positive over its own sweep's x range, zero-padded elsewhere, and
	// normalized to its sweep's first sequential cell.
	sweeps := []int{len(s.BatchSweep), len(s.RunCountSweep), len(s.ScanRanges)}
	lo := 0
	for i, series := range res.Series {
		if len(series.Y) != wantX {
			t.Fatalf("%s: %d values, want %d", series.Name, len(series.Y), wantX)
		}
		hi := lo + sweeps[i/2]
		for x, y := range series.Y {
			if inSweep := x >= lo && x < hi; inSweep != (y > 0) {
				t.Fatalf("%s: cell %d = %v, sweep covers [%d,%d)", series.Name, x, y, lo, hi)
			}
		}
		if i%2 == 0 {
			if y := series.Y[lo]; y < 0.99 || y > 1.01 {
				t.Errorf("%s: baseline cell = %v, want 1.0", series.Name, y)
			}
		} else {
			lo = hi
		}
	}
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11MultiRunRand(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(res.Series))
	}
}

func TestFig12Shape(t *testing.T) {
	s := TinyScale()
	res, err := Fig12ConcurrentReaders(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(s.ReaderCounts) {
		t.Fatalf("series = %d, want %d", len(res.Series), len(s.ReaderCounts))
	}
	for _, series := range res.Series {
		if len(series.Y) != s.Cycles {
			t.Fatalf("%s: %d cycles, want %d", series.Name, len(series.Y), s.Cycles)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	s := TinyScale()
	res, err := Fig13UpdateRates(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(s.UpdateRates) {
		t.Fatalf("series = %d, want %d", len(res.Series), len(s.UpdateRates))
	}
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14PurgeLevels(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3 (none/half/all)", len(res.Series))
	}
}

func TestFig15Shape(t *testing.T) {
	res, err := Fig15Evolve(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(res.Series))
	}
}

func TestAblations(t *testing.T) {
	s := TinyScale()
	for name, f := range map[string]func(Scale) (*Result, error){
		"offset-array": AblationOffsetArray,
		"synopsis":     AblationSynopsis,
		"batch-sort":   AblationBatchSort,
		"merge-policy": AblationMergePolicy,
		"secondary":    AblationSecondaryIndex,
	} {
		res, err := f(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Series) == 0 || len(res.X) == 0 {
			t.Fatalf("%s: empty result", name)
		}
	}
}

func TestAblationSynopsisPrunes(t *testing.T) {
	res, err := AblationSynopsis(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// The driver's note counts the runs each configuration pruned.
	var on, off int
	found := false
	for _, note := range res.Notes {
		if _, err := fmt.Sscanf(note, "runs pruned: %d with synopsis, %d without", &on, &off); err == nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("missing runs-pruned note: %v", res.Notes)
	}
	if on <= 0 || off != 0 {
		t.Errorf("runs pruned: %d with synopsis, %d without; want >0 and 0", on, off)
	}
}

func TestResultPrint(t *testing.T) {
	res := &Result{
		Figure:   "Figure X",
		Title:    "test",
		XLabel:   "x",
		YLabel:   "normalized",
		X:        []string{"1", "2"},
		Series:   []Series{{Name: "s", Y: []float64{1, 2.5}}},
		Baseline: "cell(0,0)",
		Notes:    []string{"a note"},
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "normalized", "2.500", "a note", "cell(0,0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestUpdateSkewPattern(t *testing.T) {
	u := NewUpdateSkew(10, 1000, 1)
	first := u.Cycle()
	if len(first) != 1000 {
		t.Fatalf("cycle size = %d", len(first))
	}
	// First cycle is all new keys.
	if u.Domain() != 1000 {
		t.Fatalf("domain after first cycle = %d", u.Domain())
	}
	// Subsequent cycles: ~10% updates of the last cycle at p=10.
	second := u.Cycle()
	updates := 0
	for _, k := range second {
		if k < 1000 {
			updates++
		}
	}
	if updates < 50 || updates > 400 {
		t.Errorf("updates in second cycle = %d, want roughly 100-200 at p=10%%", updates)
	}
}

func TestUpdateSkewAllUpdates(t *testing.T) {
	u := NewUpdateSkew(100, 500, 2)
	u.Cycle()
	domainAfter1 := u.Domain()
	u.Cycle()
	// p=100: after the first cycle everything is an update — the domain
	// must stop growing (paper: "all ingested records are updates after
	// the first groom cycle").
	if u.Domain() != domainAfter1 {
		t.Errorf("domain grew under p=100%%: %d -> %d", domainAfter1, u.Domain())
	}
}

func TestUpdateSkewReadOnly(t *testing.T) {
	u := NewUpdateSkew(0, 300, 3)
	u.Cycle()
	u.Cycle()
	if u.Domain() != 600 {
		t.Errorf("p=0 must generate only new keys: domain = %d, want 600", u.Domain())
	}
}

func TestKeyGens(t *testing.T) {
	if SeqKeys(10).Key(3) != 3 || SeqKeys(10).N() != 10 {
		t.Error("SeqKeys")
	}
	r := NewRandKeys(100, 7)
	seen := map[int64]bool{}
	for i := 0; i < r.N(); i++ {
		k := r.Key(i)
		if k < 0 || k >= 100 || seen[k] {
			t.Fatalf("RandKeys not a permutation at %d: %d", i, k)
		}
		seen[k] = true
	}
	qb := NewQueryBatch(50, 9)
	if got := qb.Sequential(5); len(got) != 5 {
		t.Error("Sequential batch size")
	}
	if got := qb.Random(5); len(got) != 5 {
		t.Error("Random batch size")
	}
	first := qb.SequentialFrom(3)
	second := qb.SequentialFrom(3)
	if second[0] != first[2]+1 {
		t.Error("SequentialFrom must continue from the cursor")
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int]string{
		1:         "1",
		999:       "999",
		1000:      "1K",
		1500:      "1.5K",
		1_000_000: "1M",
		2_500_000: "2.5M",
	}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}
