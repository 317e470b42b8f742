package bench

import (
	"fmt"
	"time"

	"umzi/internal/core"
	"umzi/internal/run"
	"umzi/internal/storage"
	"umzi/internal/types"
)

// Ablation studies for the design decisions DESIGN.md calls out. These go
// beyond the paper's figures: they isolate individual mechanisms so the
// contribution of each is visible.

// AblationOffsetArray measures lookup latency with the hash offset array
// disabled and at several widths (§4.2: the array narrows the initial
// binary-search range).
func AblationOffsetArray(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Ablation A1",
		Title:    "Offset array width vs lookup latency",
		XLabel:   "offset array",
		YLabel:   "normalized lookup time",
		Baseline: "offset array disabled",
	}
	n := s.MultiRunSize * 4
	var base float64
	series := Series{Name: "batched lookups"}
	for _, bits := range []uint8{0, 6, 10, 12} {
		label := "off"
		if bits > 0 {
			label = fmt.Sprintf("%d bits", bits)
		}
		res.X = append(res.X, label)
		d := dataset{variant: I1, groupBits: groupBitsLookup}
		def := I1.Def()
		def.HashBits = bits
		cfg := core.Config{
			Name:  fmt.Sprintf("a1-%d", bits),
			Def:   def,
			Store: storage.NewMemStore(storage.LatencyModel{}),
		}
		if bits == 0 {
			cfg.DisableOffsetArray = true
		}
		ix, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := buildRuns(ix, d, SeqKeys(n), 1); err != nil {
			ix.Close()
			return nil, err
		}
		qb := NewQueryBatch(n, 3)
		elapsed := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, qb.Random(s.LookupBatch)); err != nil {
				panic(err)
			}
		})
		ix.Close()
		if base == 0 {
			base = elapsed
		}
		series.Y = append(series.Y, elapsed/base)
	}
	res.Series = []Series{series}
	res.Notes = append(res.Notes, "expect wider arrays to shrink the binary-search window and speed lookups")
	return res, nil
}

// AblationSynopsis isolates run-synopsis pruning (§4.2) under sequential
// ingestion, where it shines, with pruning force-disabled as the control.
func AblationSynopsis(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Ablation A3",
		Title:    "Run synopsis pruning",
		XLabel:   "configuration",
		YLabel:   "normalized batch lookup time",
		Baseline: "synopsis enabled",
	}
	build := func(name string, disable bool) (float64, int64, error) {
		d := dataset{variant: I1, groupBits: groupBitsScan}
		cfg := core.Config{
			Name:            name,
			Def:             I1.Def(),
			Store:           storage.NewMemStore(storage.LatencyModel{}),
			DisableSynopsis: disable,
		}
		ix, err := core.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		defer ix.Close()
		if err := buildRuns(ix, d, SeqKeys(s.MultiRunCount*s.MultiRunSize), s.MultiRunCount); err != nil {
			return 0, 0, err
		}
		qb := NewQueryBatch(s.MultiRunCount*s.MultiRunSize, 5)
		elapsed := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, qb.SequentialFrom(s.LookupBatch)); err != nil {
				panic(err)
			}
		})
		return elapsed, ix.Stats().RunsPruned, nil
	}
	on, prunedOn, err := build("a3-on", false)
	if err != nil {
		return nil, err
	}
	off, prunedOff, err := build("a3-off", true)
	if err != nil {
		return nil, err
	}
	res.X = []string{"enabled", "disabled"}
	res.Series = []Series{{Name: "sequential batch", Y: []float64{1, off / on}}}
	res.Notes = append(res.Notes,
		fmt.Sprintf("runs pruned: %d with synopsis, %d without", prunedOn, prunedOff),
		"expect disabled synopsis to search every run")
	return res, nil
}

// AblationBatchSort compares batched lookups (keys sorted, each run read
// once, §7.2) against issuing the same keys as individual point lookups.
func AblationBatchSort(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Ablation A4",
		Title:    "Sorted batch lookups vs individual lookups",
		XLabel:   "batch size",
		YLabel:   "normalized total time",
		Baseline: "batched at smallest size",
	}
	// Charge a per-read latency so the I/O amortization of batching is
	// visible (the paper's runs live on SSD, not in free memory).
	d := dataset{variant: I1, groupBits: groupBitsScan}
	cfg := core.Config{
		Name:  "a4",
		Def:   I1.Def(),
		Store: storage.NewMemStore(storage.LatencyModel{PerOp: 50 * time.Microsecond}),
	}
	ix, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	if err := buildRuns(ix, d, SeqKeys(s.MultiRunCount*s.MultiRunSize), s.MultiRunCount); err != nil {
		return nil, err
	}
	domain := s.MultiRunCount * s.MultiRunSize
	qb := NewQueryBatch(domain, 29)
	var batched, single Series
	batched.Name = "batched (sorted)"
	single.Name = "individual"
	var base float64
	for _, bs := range s.BatchSweep {
		res.X = append(res.X, humanCount(bs))
		keys := qb.Random(bs)
		tBatch := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, keys); err != nil {
				panic(err)
			}
		})
		tSingle := timeAvg(s.Reps, func() {
			for _, k := range keys {
				if _, _, err := ix.PointLookup(d.eqVals(k), d.sortVals(k), types.MaxTS); err != nil {
					panic(err)
				}
			}
		})
		if base == 0 {
			base = tBatch
		}
		batched.Y = append(batched.Y, tBatch/base)
		single.Y = append(single.Y, tSingle/base)
	}
	res.Series = []Series{batched, single}
	res.Notes = append(res.Notes, "expect batching to win as size grows (each run scanned once)")
	return res, nil
}

// AblationMergePolicy sweeps the K and T merge knobs (§5.3) and reports
// both the lookup latency and the write amplification after a fixed
// ingest, exposing the trade-off the hybrid policy tunes.
func AblationMergePolicy(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Ablation A5",
		Title:    "Merge policy knobs (K, T)",
		XLabel:   "(K,T)",
		YLabel:   "normalized (lookup time | bytes written)",
		Baseline: "K=2,T=2",
	}
	configs := []struct{ k, t int }{{2, 2}, {2, 4}, {4, 4}, {8, 4}, {4, 10}}
	var lat, wamp Series
	lat.Name = "lookup time"
	wamp.Name = "bytes written"
	var baseLat, baseW float64
	for _, c := range configs {
		res.X = append(res.X, fmt.Sprintf("K=%d,T=%d", c.k, c.t))
		d := dataset{variant: I1, groupBits: groupBitsLookup}
		store := storage.NewMemStore(storage.LatencyModel{})
		cfg := core.Config{
			Name:  fmt.Sprintf("a5-%d-%d", c.k, c.t),
			Def:   I1.Def(),
			Store: store,
		}
		cfg.K, cfg.T = c.k, c.t
		ix, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		n := s.MultiRunCount * s.MultiRunSize
		per := n / s.MultiRunCount
		idx := 0
		for r := 0; r < s.MultiRunCount; r++ {
			if err := buildOneCycle(ix, d, SeqKeys(n), uint64(r+1), idx, per); err != nil {
				ix.Close()
				return nil, err
			}
			idx += per
			if err := ix.Quiesce(); err != nil {
				ix.Close()
				return nil, err
			}
		}
		qb := NewQueryBatch(idx, 31)
		elapsed := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, qb.Random(s.LookupBatch)); err != nil {
				panic(err)
			}
		})
		written := float64(store.Stats().Snapshot().BytesWritten)
		ix.Close()
		if baseLat == 0 {
			baseLat, baseW = elapsed, written
		}
		lat.Y = append(lat.Y, elapsed/baseLat)
		wamp.Y = append(wamp.Y, written/baseW)
	}
	res.Series = []Series{lat, wamp}
	res.Notes = append(res.Notes, "expect small K / small T to favor lookups and pay write amplification; large K the reverse")
	return res, nil
}

// buildOneCycle ingests keys[idx:idx+count] as groom cycle `cycle`.
func buildOneCycle(ix *core.Index, d dataset, keys KeyGen, cycle uint64, idx, count int) error {
	entries := make([]run.Entry, 0, count)
	for i := 0; i < count; i++ {
		e, err := d.entry(ix, keys.Key(idx+i), types.MakeTS(cycle, uint32(i)), types.RID{Zone: types.ZoneGroomed, Block: cycle, Offset: uint32(i)})
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	return ix.BuildRun(entries, types.BlockRange{Min: cycle, Max: cycle})
}
