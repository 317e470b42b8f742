package bench

import (
	"fmt"

	"umzi/internal/core"
	"umzi/internal/keyenc"
	"umzi/internal/run"
	"umzi/internal/types"
)

// groupBitsLookup splits keys into many small equality groups (16 sort
// values per group) so the offset array has plenty of distinct hashes —
// the lookup-heavy figures use it.
const groupBitsLookup = 4

// groupBitsScan splits keys into huge equality groups (2^20 sort values)
// so range scans up to 1M entries stay inside one group — the scan sweeps
// use it.
const groupBitsScan = 20

// Fig08IndexBuild reproduces Figure 8: the time to build one index run as
// the number of entries grows, for the three index definitions,
// normalized to I1 at the smallest size. Expected shape: near-linear
// scaling; I3 cheapest (one fewer key column); the column-count effect is
// small next to the sort cost.
func Fig08IndexBuild(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Figure 8",
		Title:    "Index Building Performance",
		XLabel:   "# tuples in an index run",
		YLabel:   "normalized time",
		Baseline: fmt.Sprintf("I1 @ %s tuples", humanCount(s.RunSizes[0])),
	}
	var base float64
	for _, v := range Variants() {
		d := dataset{variant: v, groupBits: groupBitsLookup}
		series := Series{Name: v.String()}
		for _, n := range s.RunSizes {
			if len(res.Series) == 0 {
				res.X = append(res.X, humanCount(n))
			}
			rdef := v.Def().RunDef()
			elapsed := timeAvg(s.Reps, func() {
				b, err := run.NewBuilder(rdef, run.Meta{Zone: types.ZoneGroomed, Blocks: types.BlockRange{Min: 1, Max: 1}}, 0)
				if err != nil {
					panic(err)
				}
				for i := 0; i < n; i++ {
					if err := b.AddValues(d.eqVals(int64(i)), d.sortVals(int64(i)), []keyenc.Value{keyenc.I64(int64(i))}, types.TS(i+1), types.RID{Zone: types.ZoneGroomed, Block: 1, Offset: uint32(i)}); err != nil {
						panic(err)
					}
				}
				if _, _, err := b.Finish(); err != nil {
					panic(err)
				}
			})
			if base == 0 {
				base = elapsed
			}
			series.Y = append(series.Y, elapsed)
		}
		res.Series = append(res.Series, series)
	}
	res.Series = normalize(res.Series, base)
	res.Notes = append(res.Notes,
		"expect near-linear growth with run size; I3 fastest (one fewer key column)")
	return res, nil
}

// singleRunIndex builds one index holding exactly one run of n entries.
func singleRunIndex(v IndexVariant, n int) (*core.Index, dataset, error) {
	d := dataset{variant: v, groupBits: groupBitsLookup}
	ix, err := newIndex(fmt.Sprintf("f9-%s-%d", v, n), v, nil)
	if err != nil {
		return nil, d, err
	}
	if err := buildRuns(ix, d, SeqKeys(n), 1); err != nil {
		ix.Close()
		return nil, d, err
	}
	return ix, d, nil
}

// Fig09SingleRun reproduces Figure 9: batched lookups against a single
// run with varying run size, for sequential (9a) and random (9b) query
// batches and all three definitions, normalized to the sequential query
// on the smallest I1 run. Expected shape: mild growth with run size (the
// offset array plus binary search absorb most of it); I2 slower because
// two equality columns make each bucket of the offset array larger.
func Fig09SingleRun(s Scale) (*Result, error) {
	res := &Result{
		Figure:   "Figure 9",
		Title:    "Single Run Query Performance",
		XLabel:   "# tuples in an index run",
		YLabel:   "normalized lookup time",
		Baseline: fmt.Sprintf("sequential I1 @ %s tuples", humanCount(s.RunSizes[0])),
	}
	var base float64
	for _, mode := range []string{"seq", "rand"} {
		for _, v := range Variants() {
			series := Series{Name: fmt.Sprintf("%s/%s", mode, v)}
			for _, n := range s.RunSizes {
				if len(res.Series) == 0 {
					res.X = append(res.X, humanCount(n))
				}
				ix, d, err := singleRunIndex(v, n)
				if err != nil {
					return nil, err
				}
				qb := NewQueryBatch(n, 7)
				elapsed := timeAvg(s.Reps, func() {
					var keys []int64
					if mode == "seq" {
						keys = qb.Sequential(s.LookupBatch)
					} else {
						keys = qb.Random(s.LookupBatch)
					}
					if _, err := lookupBatch(ix, d, keys); err != nil {
						panic(err)
					}
				})
				ix.Close()
				if base == 0 {
					base = elapsed
				}
				series.Y = append(series.Y, elapsed)
			}
			res.Series = append(res.Series, series)
		}
	}
	res.Series = normalize(res.Series, base)
	res.Notes = append(res.Notes,
		"expect limited growth with run size (offset array + binary search)",
		"expect I2 slower: two equality columns dilute the offset array")
	return res, nil
}

// multiRunIndex builds an I1 index over nRuns runs of runSize entries,
// with either sequential or random key ingestion and scan-friendly
// grouping.
func multiRunIndex(name string, nRuns, runSize int, randomIngest bool) (*core.Index, dataset, error) {
	d := dataset{variant: I1, groupBits: groupBitsScan}
	ix, err := newIndex(name, I1, nil)
	if err != nil {
		return nil, d, err
	}
	n := nRuns * runSize
	var keys KeyGen = SeqKeys(n)
	if randomIngest {
		keys = NewRandKeys(n, 99)
	}
	if err := buildRuns(ix, d, keys, nRuns); err != nil {
		ix.Close()
		return nil, d, err
	}
	return ix, d, nil
}

// figMultiRun implements Figures 10 and 11 (the same sweeps with
// sequential vs random key ingestion).
func figMultiRun(s Scale, randomIngest bool) (*Result, error) {
	figure, title := "Figure 10", "Multi-run queries, sequentially ingested keys"
	if randomIngest {
		figure, title = "Figure 11", "Multi-run queries, randomly ingested keys"
	}
	res := &Result{
		Figure: figure,
		Title:  title,
		XLabel: "sweep",
		YLabel: "normalized time (per sweep, see series names)",
	}

	// (a) batch size sweep over the default dataset.
	ix, d, err := multiRunIndex(figure+"-a", s.MultiRunCount, s.MultiRunSize, randomIngest)
	if err != nil {
		return nil, err
	}
	domain := s.MultiRunCount * s.MultiRunSize
	qb := NewQueryBatch(domain, 11)
	var aSeq, aRand Series
	aSeq.Name = "a:seq-query (per key)"
	aRand.Name = "a:rand-query (per key)"
	var aBase float64
	for _, bs := range s.BatchSweep {
		res.X = append(res.X, fmt.Sprintf("a:batch=%s", humanCount(bs)))
		tSeq := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, qb.SequentialFrom(bs)); err != nil {
				panic(err)
			}
		}) / float64(bs)
		tRand := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, qb.Random(bs)); err != nil {
				panic(err)
			}
		}) / float64(bs)
		if aBase == 0 {
			aBase = tSeq
		}
		aSeq.Y = append(aSeq.Y, tSeq/aBase)
		aRand.Y = append(aRand.Y, tRand/aBase)
	}
	ix.Close()

	// (b) number-of-runs sweep at the default batch size.
	var bSeq, bRand Series
	bSeq.Name = "b:seq-query"
	bRand.Name = "b:rand-query"
	var bBase float64
	for _, nr := range s.RunCountSweep {
		res.X = append(res.X, fmt.Sprintf("b:runs=%d", nr))
		ix, d, err := multiRunIndex(fmt.Sprintf("%s-b%d", figure, nr), nr, s.MultiRunSize, randomIngest)
		if err != nil {
			return nil, err
		}
		dom := nr * s.MultiRunSize
		qb := NewQueryBatch(dom, 13)
		tSeq := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, qb.SequentialFrom(s.LookupBatch)); err != nil {
				panic(err)
			}
		})
		tRand := timeAvg(s.Reps, func() {
			if _, err := lookupBatch(ix, d, qb.Random(s.LookupBatch)); err != nil {
				panic(err)
			}
		})
		ix.Close()
		if bBase == 0 {
			bBase = tSeq
		}
		bSeq.Y = append(bSeq.Y, tSeq/bBase)
		bRand.Y = append(bRand.Y, tRand/bBase)
	}

	// (c) scan-range sweep with the priority-queue method (§7.1.2).
	ix, d, err = multiRunIndex(figure+"-c", s.MultiRunCount, s.MultiRunSize, randomIngest)
	if err != nil {
		return nil, err
	}
	var cSeq, cRand Series
	cSeq.Name = "c:seq-range"
	cRand.Name = "c:rand-range"
	var cBase float64
	scanQB := NewQueryBatch(domain, 17)
	for _, rng := range s.ScanRanges {
		res.X = append(res.X, fmt.Sprintf("c:range=%s", humanCount(rng)))
		doScan := func(start int64) {
			group := start >> groupBitsScan
			lo := start & (1<<groupBitsScan - 1)
			hi := lo + int64(rng) - 1
			_, err := ix.RangeScan(core.ScanOptions{
				Equality: []keyenc.Value{keyenc.I64(group)},
				SortLo:   []keyenc.Value{keyenc.I64(lo)},
				SortHi:   []keyenc.Value{keyenc.I64(hi)},
				TS:       types.MaxTS,
			})
			if err != nil {
				panic(err)
			}
		}
		tSeq := timeAvg(s.Reps, func() { doScan(scanQB.SequentialFrom(1)[0]) })
		tRand := timeAvg(s.Reps, func() { doScan(scanQB.Random(1)[0]) })
		if cBase == 0 {
			cBase = tSeq
		}
		cSeq.Y = append(cSeq.Y, tSeq/cBase)
		cRand.Y = append(cRand.Y, tRand/cBase)
	}
	ix.Close()

	// Pad series with zeros so every series aligns with the combined x
	// axis (a, then b, then c).
	nA, nB, nC := len(s.BatchSweep), len(s.RunCountSweep), len(s.ScanRanges)
	pad := func(pre, post int, ys []float64) []float64 {
		out := make([]float64, 0, pre+len(ys)+post)
		out = append(out, make([]float64, pre)...)
		out = append(out, ys...)
		return append(out, make([]float64, post)...)
	}
	aSeq.Y, aRand.Y = pad(0, nB+nC, aSeq.Y), pad(0, nB+nC, aRand.Y)
	bSeq.Y, bRand.Y = pad(nA, nC, bSeq.Y), pad(nA, nC, bRand.Y)
	cSeq.Y, cRand.Y = pad(nA+nB, 0, cSeq.Y), pad(nA+nB, 0, cRand.Y)
	res.Series = []Series{aSeq, aRand, bSeq, bRand, cSeq, cRand}

	if randomIngest {
		res.Notes = append(res.Notes,
			"random ingestion defeats run synopses: sequential ~= random queries in (a)/(b)",
			"(c) scan time still linear in range")
	} else {
		res.Notes = append(res.Notes,
			"(a) batching amortizes block reads; sequential << random (synopsis pruning)",
			"(b) sequential ~flat with #runs, random grows ~linearly",
			"(c) scan time linear in range; sequential ~= random starts")
	}
	return res, nil
}

// Fig10MultiRunSeq reproduces Figure 10.
func Fig10MultiRunSeq(s Scale) (*Result, error) { return figMultiRun(s, false) }

// Fig11MultiRunRand reproduces Figure 11.
func Fig11MultiRunRand(s Scale) (*Result, error) { return figMultiRun(s, true) }
