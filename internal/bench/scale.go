package bench

// Scale holds every sweep parameter of the evaluation. SmallScale keeps
// the full sweep structure of the paper at laptop-friendly sizes (a few
// seconds per figure); PaperScale matches the paper's axes (minutes to
// hours, dominated by the 100M-entry run builds of Figures 8 and 9).
type Scale struct {
	// Reps is the number of repetitions averaged per cell (§8.1: three).
	Reps int

	// RunSizes sweeps the entries per run for Figures 8 and 9.
	RunSizes []int
	// LookupBatch is the default lookup batch size (paper: 1000).
	LookupBatch int

	// MultiRunCount and MultiRunSize shape the Figure 10/11 dataset
	// (paper: 20 runs of 100K entries).
	MultiRunCount int
	MultiRunSize  int
	// BatchSweep sweeps lookup batch sizes (Fig 10a/11a).
	BatchSweep []int
	// RunCountSweep sweeps the number of runs (Fig 10b/11b).
	RunCountSweep []int
	// ScanRanges sweeps range-scan sizes (Fig 10c/11c).
	ScanRanges []int

	// End-to-end parameters (Figures 12–15). RecordsPerCycle records are
	// ingested per groom cycle for Warmup unmeasured cycles followed by
	// Cycles measured ones; a post-groom runs every PostGroomEvery cycles
	// (paper: ~100K records/s, groom 1s, post-groom 20s, 100s total).
	Warmup          int
	Cycles          int
	RecordsPerCycle int
	PostGroomEvery  int
	// ReaderCounts sweeps concurrent readers (Fig 12; paper shows 4–52).
	ReaderCounts []int
	// UpdateRates sweeps the IoT update percentage p (Fig 13).
	UpdateRates []int

	// ShardCounts sweeps the number of table shards for the sharded
	// scatter-gather experiment (Figure S1, an extension: the paper runs
	// Umzi inside sharded Wildfire but evaluates a single shard).
	ShardCounts []int
	// ShardScanRows is the total dataset size of the shard experiment;
	// it stays fixed across shard counts so the sweep isolates the
	// scatter-gather effect on the same data.
	ShardScanRows int
	// SecondaryCardinalities sweeps the secondary column's distinct-value
	// count for the index-selection ablation (A8); selectivity of the
	// equality query is 1/cardinality.
	SecondaryCardinalities []int

	// WALWriters sweeps the number of concurrent committers of the
	// commit-log durability experiment (Figure S3).
	WALWriters []int
	// WALCommits is the number of transactions each writer commits per
	// Figure S3 cell.
	WALCommits int
	// WALRowsPerCommit is the rows per transaction in Figure S3.
	WALRowsPerCommit int
}

// SmallScale returns the default laptop-scale configuration used by the
// Go benchmarks and the quick CLI mode.
func SmallScale() Scale {
	return Scale{
		Reps:                   3,
		RunSizes:               []int{1_000, 10_000, 100_000, 1_000_000},
		LookupBatch:            1000,
		MultiRunCount:          20,
		MultiRunSize:           20_000,
		BatchSweep:             []int{1, 10, 100, 1000, 10_000},
		RunCountSweep:          []int{1, 10, 20, 40},
		ScanRanges:             []int{1, 10, 100, 1_000, 10_000, 100_000},
		Warmup:                 8,
		Cycles:                 16,
		RecordsPerCycle:        2_000,
		PostGroomEvery:         4,
		ReaderCounts:           []int{1, 2, 4, 8},
		UpdateRates:            []int{0, 20, 40, 60, 80, 100},
		ShardCounts:            []int{1, 2, 4, 8},
		ShardScanRows:          16_000,
		SecondaryCardinalities: []int{4, 16, 64, 256},
		WALWriters:             []int{1, 8, 32},
		WALCommits:             120,
		WALRowsPerCommit:       4,
	}
}

// PaperScale returns the full axes of the paper's figures. Expect long
// runtimes: Figure 8/9 build runs of up to 100M entries.
func PaperScale() Scale {
	return Scale{
		Reps:     3,
		RunSizes: []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 20_000_000, 40_000_000, 60_000_000, 80_000_000, 100_000_000},

		LookupBatch:            1000,
		MultiRunCount:          20,
		MultiRunSize:           100_000,
		BatchSweep:             []int{1, 10, 100, 1000, 10_000},
		RunCountSweep:          []int{1, 10, 20, 40, 60, 80, 100},
		ScanRanges:             []int{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000},
		Warmup:                 20,
		Cycles:                 100,
		RecordsPerCycle:        100_000,
		PostGroomEvery:         20,
		ReaderCounts:           []int{1, 4, 16, 28, 40, 52},
		UpdateRates:            []int{0, 20, 40, 60, 80, 100},
		ShardCounts:            []int{1, 2, 4, 8, 16},
		ShardScanRows:          200_000,
		SecondaryCardinalities: []int{4, 16, 64, 256, 1024},
		WALWriters:             []int{1, 8, 32, 128},
		WALCommits:             400,
		WALRowsPerCommit:       4,
	}
}

// TinyScale is for unit tests of the harness itself.
func TinyScale() Scale {
	return Scale{
		Reps:                   1,
		RunSizes:               []int{500, 1000},
		LookupBatch:            64,
		MultiRunCount:          4,
		MultiRunSize:           2_000,
		BatchSweep:             []int{1, 256},
		RunCountSweep:          []int{1, 4},
		ScanRanges:             []int{1, 64},
		Warmup:                 2,
		Cycles:                 6,
		RecordsPerCycle:        400,
		PostGroomEvery:         2,
		ReaderCounts:           []int{1, 2},
		UpdateRates:            []int{0, 100},
		ShardCounts:            []int{1, 2},
		ShardScanRows:          2_000,
		SecondaryCardinalities: []int{4, 64},
		WALWriters:             []int{1, 8},
		WALCommits:             24,
		WALRowsPerCommit:       4,
	}
}
