package main

import (
	"fmt"
	"time"
)

// workload is one configuration of the shared skeleton
// (setup → ingest phase → read phase → verify). The sizes are the
// calibrated ones for -seconds 20 on the 2-core reference box; scaled()
// stretches or shrinks them with -seconds.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Topology and storage.
	Shards int `json:"shards"`
	// Parallelism, when set, bounds both the scatter-gather pool and each
	// shard's scan workers (0: the engine's defaults under GOMAXPROCS 2).
	Parallelism int  `json:"parallelism,omitempty"`
	FSStore     bool `json:"fs_store"` // temp dir, fsync off; otherwise MemStore
	// WALOff buffers the commit log in memory until a segment fills or a
	// groom flushes it (umzi.SyncOff); otherwise every commit writes its
	// log records to the store before it is acknowledged.
	WALOff bool `json:"wal_off,omitempty"`
	Remote bool `json:"remote"` // reads and commits go through internal/server + client
	// Daemons starts the groomer/post-groomer/indexer timers
	// (Table.Start); otherwise the driver calls Groom every GroomEvery
	// commits and PostGroom+SyncIndex every PostEvery grooms, so byte
	// counts repeat exactly.
	Daemons       bool          `json:"daemons"`
	GroomInterval time.Duration `json:"groom_interval_ns,omitempty"`
	PostInterval  time.Duration `json:"post_interval_ns,omitempty"`
	GroomEvery    int           `json:"groom_every_commits,omitempty"`
	PostEvery     int           `json:"post_every_grooms,omitempty"`
	EvolveAtEnd   bool          `json:"evolve_at_end"` // finish the load fully post-groomed and evolved
	Devices       int64         `json:"devices"`
	PreloadRows   int           `json:"preload_rows,omitempty"` // loaded in setup, not measured
	Commits       int           `json:"commits,omitempty"`      // inline ingest phase
	RowsPerCommit int           `json:"rows_per_commit"`
	UpdateFrac    float64       `json:"update_frac"`
	CommitsPerSec float64       `json:"commits_per_s,omitempty"` // open-loop writer (Daemons)
	WindowSeconds float64       `json:"window_s,omitempty"`      // concurrent write+read window (Daemons)

	// Caches. A zero fraction means "fits": 256 MiB block cache, no SSD
	// cache. Fractions are of the estimated decoded bytes and store
	// bytes of the fully loaded table.
	BlockCacheFrac float64 `json:"block_cache_frac,omitempty"`
	SSDCacheFrac   float64 `json:"ssd_cache_frac,omitempty"`

	// Read phase: one unmeasured warm-up round, then Rounds measured
	// rounds of RoundCycles cycles each. A cycle is CycleGets gets,
	// CycleRanges ranges, CycleAggs aggregates and CycleScans scans;
	// every StreamEvery-th cycle of a round also streams the table.
	Rounds      int `json:"rounds"`
	RoundCycles int `json:"round_cycles"`
	CycleGets   int `json:"cycle_gets"`
	CycleRanges int `json:"cycle_ranges"`
	CycleAggs   int `json:"cycle_aggs"`
	CycleScans  int `json:"cycle_scans"`
	StreamEvery int `json:"stream_every_cycles"`
}

const (
	rangeLen       = 100
	minSetups      = 3
	maxSetups      = 7
	reopenRepeats  = 5
	fitsCacheBytes = 256 << 20
	// Estimated footprint of one loaded row, used only to size the
	// scan_cold caches before the table exists. The traced run reports
	// the hit ratios those sizes actually produce.
	estDecodedBytesPerRow = 150
	estStoreBytesPerRow   = 110
)

var workloads = []workload{
	{
		Name:   "ingest_evolve",
		Why:    "write pipeline dominates: per-commit WAL sync, inline groom/post-groom/evolve; reads then run warm over the many-run index",
		Shards: 1, GroomEvery: 40, PostEvery: 10,
		Devices: 1000, Commits: 2520, RowsPerCommit: 100, UpdateFrac: 0.10,
		Rounds: 5, RoundCycles: 2, CycleGets: 500, CycleRanges: 150, CycleAggs: 3, CycleScans: 2, StreamEvery: 1,
	},
	{
		Name:   "scan_cold",
		Why:    "read pipeline with a working set 4x both caches: store fetch, SSD cache, block decode and purged index levels do the work",
		Shards: 1, FSStore: true, WALOff: true, GroomEvery: 10, PostEvery: 4, EvolveAtEnd: true,
		Devices: 400, Commits: 1200, RowsPerCommit: 100, UpdateFrac: 0.10,
		BlockCacheFrac: 0.25, SSDCacheFrac: 0.25,
		Rounds: 5, RoundCycles: 3, CycleGets: 500, CycleRanges: 150, CycleAggs: 3, CycleScans: 2, StreamEvery: 1,
	},
	{
		Name:   "htap_mixed",
		Why:    "reads beside writes: open-loop writer at a fixed rate, daemons on timers, one closed-loop analyst; block-cache churn, live zone, merge interference",
		Shards: 4, Parallelism: 1, Daemons: true, GroomInterval: 50 * time.Millisecond, PostInterval: time.Second,
		Devices: 500, PreloadRows: 100_000, RowsPerCommit: 20, UpdateFrac: 0.20,
		CommitsPerSec: 500, WindowSeconds: 20,
		Rounds: 5, CycleGets: 20, CycleRanges: 5, CycleAggs: 1, CycleScans: 1, StreamEvery: 6,
	},
	{
		Name:   "serve_remote",
		Why:    "wire, server and client dominate: every commit and read crosses TCP to an in-process server over warm caches",
		Shards: 2, Remote: true, GroomEvery: 40, PostEvery: 10,
		Devices: 1000, Commits: 2520, RowsPerCommit: 100, UpdateFrac: 0.10,
		Rounds: 5, RoundCycles: 3, CycleGets: 350, CycleRanges: 100, CycleAggs: 3, CycleScans: 2, StreamEvery: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled stretches the calibrated sizes by seconds/20. Table size and
// per-round operation counts both scale, so a run's measured phases
// take about `seconds` on the reference box.
func (w workload) scaled(seconds float64) workload {
	f := seconds / 20
	scale := func(n int, min int) int {
		if n == 0 {
			return 0
		}
		if v := int(float64(n)*f + 0.5); v > min {
			return v
		}
		return min
	}
	w.Commits = scale(w.Commits, w.GroomEvery+1)
	w.PreloadRows = scale(w.PreloadRows, 20*rangeLen)
	if !w.Daemons { // there the window, not the counts, bounds the analyst
		w.CycleGets = scale(w.CycleGets, 5)
		w.CycleRanges = scale(w.CycleRanges, 2)
	}
	w.WindowSeconds *= f
	return w
}

// totalRows bounds the keys a run can create; it sizes the oracle.
func (w workload) totalRows() int {
	n := w.PreloadRows + w.Commits*w.RowsPerCommit
	if w.Daemons {
		n += int(w.CommitsPerSec*w.WindowSeconds*1.2+64) * w.RowsPerCommit
	}
	return n + 16*w.RowsPerCommit
}
