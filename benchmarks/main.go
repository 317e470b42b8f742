// Command benchmarks is the repository's benchmark: four HTAP workloads
// over one skeleton (setup → ingest phase → read phase → verify), 13
// end-to-end metrics with tracing off, and per-module layer metrics
// from a traced run. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	out      string
	tmp      string
	quick    bool
}

// quickSeconds is the -quick smoke scale: every size shrinks to about a
// fiftieth, so all four workloads run in a few seconds.
const quickSeconds = 0.4

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for rows, keys, update choice and read keys")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "target length of the measured phases; sizes are calibrated for 20")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics, tracing off")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file (JSON)")
	flag.StringVar(&o.out, "out", "", "write the full results (all metrics, cells, sizes) to this file (JSON)")
	flag.StringVar(&o.tmp, "tmpdir", ".bench_build/tmp", "where scan_cold keeps its FSStore")
	flag.BoolVar(&o.quick, "quick", false, "smoke scale: tiny sizes, seconds per workload")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice on this code and fail if any (metric, workload) cell disagrees beyond its bound")
	compare := flag.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	printManifest := flag.Bool("print-manifest", false, "print BENCHMARK.json as generated from the metric and workload tables")
	flag.Parse()

	// Pinned, so ScanParallelism defaults do not vary with the host.
	runtime.GOMAXPROCS(2)
	if o.quick {
		o.seconds = quickSeconds
	}
	var err error
	switch {
	case *printManifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(buildManifest())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *selfcheck:
		err = runSelfcheck(o)
	default:
		err = runCLI(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// suite is what -out writes: every run of one invocation.
type suite struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	NProc      int       `json:"nproc"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Runs       []*result `json:"runs"`
}

func newSuite(o options) *suite {
	return &suite{Seed: o.seed, Seconds: o.seconds, NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// runCLI runs one workload in one mode, or with -workload all every
// workload untraced and then traced, prints every metric, and ends with
// the one-line JSON result the harness reads.
func runCLI(o options) error {
	ctx := context.Background()
	s := newSuite(o)
	var names []string
	modes := []bool{o.trace != 0}
	if o.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		modes = []bool{false, true}
	} else {
		names = []string{o.workload}
	}
	var last *result
	for _, name := range names {
		for _, traced := range modes {
			res, err := runWorkload(ctx, name, o, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.print(os.Stdout)
			s.Runs = append(s.Runs, res)
			last = res
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	ok := true
	for _, r := range s.Runs {
		ok = ok && r.Correct
	}
	if len(s.Runs) == 1 {
		line, err := last.lastLine()
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if !ok {
		return fmt.Errorf("a result was wrong or an operation failed")
	}
	return nil
}

// lastLine is the harness contract: correct, attempted, failed, and
// exactly the end-to-end metrics (untraced) or exactly the per-layer
// metrics (traced).
func (r *result) lastLine() (string, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s did not produce %s", r.Workload, d.Name)
		}
		metrics[d.Name] = m
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(out), err
}

// print lists every metric by name with its unit, then the latency
// cells with their sample counts, tails and per-round spread.
func (r *result) print(w *os.File) {
	mode := "end-to-end, tracing off"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g  (%s)  wall %.1fs\n", r.Workload, r.Seed, r.Seconds, mode, r.WallS)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics (no module prefix) first.
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return dj
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", n, m.Value, m.Unit)
	}
	cells := make([]string, 0, len(r.Cells))
	for n := range r.Cells {
		cells = append(cells, n)
	}
	sort.Strings(cells)
	for _, n := range cells {
		c := r.Cells[n]
		fmt.Fprintf(w, "  cell %-12s n=%-6d p50=%-12.6g p%g=%-12.6g round spread %.1f%%\n",
			n, c.N, c.P50, c.TailPct, c.Tail, 100*c.RoundSpread)
	}
	for _, kind := range []string{"agg", "scan", "stream"} {
		parts, ok := r.Breakdown[kind]
		if !ok {
			continue
		}
		layers := make([]string, 0, len(parts))
		for l := range parts {
			if l != "total" && l != "covered" {
				layers = append(layers, l)
			}
		}
		sort.Slice(layers, func(i, j int) bool { return parts[layers[i]] > parts[layers[j]] })
		fmt.Fprintf(w, "  time by layer, %-6s %.3f ms:", kind, parts["total"]/1e6)
		for _, l := range layers {
			fmt.Fprintf(w, "  %s %.1f%%", l, 100*parts[l]/parts["total"])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v op_hash=%s\n", r.Attempted, r.Failed, r.Correct, r.OpHash)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// runWorkload is the skeleton every workload shares.
func runWorkload(ctx context.Context, name string, o options, traced bool) (*result, error) {
	wallStart := time.Now()
	base, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	w := base.scaled(o.seconds)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Setup, several times: the median is steadier than one sample, and
	// a change that moves work into setup still shows. Cheap set-ups are
	// repeated more often, within about a second.
	var e *env
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && spent < 1); {
		if e != nil {
			if err := e.teardown(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t := time.Now()
		if e, err = setup(ctx, w, o.seed, o.tmp, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		spent += setups[len(setups)-1]
	}
	defer e.teardown()

	r := newRunner(e, o.seed, tr)
	var p phaseTimes
	var tot readTotals
	if w.Daemons {
		p, tot, err = r.runMixed(ctx)
	} else {
		if p, err = r.ingestInline(ctx); err == nil {
			tot = r.readQuiesced(ctx)
		}
	}
	if err != nil {
		return nil, err
	}
	tableRows := e.o.keys.Load() + int64(e.markers())

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	stored, _, err := objectStats(e.base, "")
	if err != nil {
		return nil, err
	}
	runsGroomed, runsPost := countRuns(e.base)
	ssdUsed := e.ssd.Stats().Used

	res := &result{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: traced, Sizes: w,
		Metrics: metricSet{}, Cells: map[string]summary{}}
	set := res.Metrics.set
	commit, fresh := r.commit.summarize(1e3), r.fresh.summarize(1e6)
	get, rng := r.get.summarize(1e3), r.ranges.summarize(1e3)
	agg, scan := r.agg.summarize(1e6), r.scan.summarize(1e6)
	res.Cells["commit_us"], res.Cells["freshness_ms"] = commit, fresh
	res.Cells["get_us"], res.Cells["range_us"] = get, rng
	res.Cells["agg_ms"], res.Cells["scan_ms"] = agg, scan
	res.Cells["stream_rows_per_s"] = summarizeBy(r.streamRates, r.streamRound, 1)
	res.Cells["read_ops_per_s"] = summarizeBy(tot.roundRates, nil, 1)

	set("setup_s", median(setups), "s")
	set("ingest_rows_per_s", float64(p.rows)/p.wall.Seconds(), "1/s")
	set("commit_p50_us", commit.P50, "us")
	set("freshness_p50_ms", fresh.P50, "ms")
	set("get_p50_us", get.P50, "us")
	set("range_p50_us", rng.P50, "us")
	set("agg_p50_ms", agg.P50, "ms")
	set("scan_rows_per_s", float64(tableRows)/(scan.P50/1e3), "1/s")
	set("stream_rows_per_s", median(r.streamRates), "1/s")
	set("read_ops_per_s", float64(tot.ops)/tot.wall.Seconds(), "1/s")
	set("write_amp", float64(p.store[scPutBytes])/float64(p.rows*userRowBytes), "ratio")
	set("store_bytes_per_user_byte", float64(stored)/float64(tableRows*userRowBytes), "ratio")
	set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")

	set("driver.commit_p99_us", commit.Tail, "us")
	set("driver.get_p99_us", get.Tail, "us")
	set("driver.range_p99_us", rng.Tail, "us")
	set("driver.freshness_p99_ms", fresh.Tail, "ms")
	set("driver.generator_late_p50_us", medianOrZero(p.late)/1e3, "us")

	// From here on the run is no longer measured: the un-groomed tail,
	// the layer probes of a traced run, then the restart check.
	if err := r.commitTail(ctx); err != nil {
		return nil, err
	}
	if traced {
		if err := r.layerCosts(ctx, res.Metrics, p, tot, runsGroomed, runsPost, ssdUsed); err != nil {
			return nil, err
		}
	}
	reopenMS, replayed, err := r.verifyRestart(ctx)
	if err != nil {
		return nil, err
	}
	set("wildfire.reopen_ms", reopenMS, "ms")
	set("wildfire.wal_replay_rows", replayed, "count")

	res.Breakdown = r.breakdown
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	res.Failures = r.failMsgs
	res.Correct = res.Failed == 0
	res.OpHash = fmt.Sprintf("%016x", e.gen.opHash)
	set("driver.attempted_ops", float64(res.Attempted), "count")
	set("driver.failed_ops", float64(res.Failed), "count")
	if traced && o.traceOut != "" {
		if err := tr.writeFile(o.traceOut); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(wallStart).Seconds()
	return res, nil
}
