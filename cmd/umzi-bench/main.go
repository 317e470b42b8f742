// Command umzi-bench regenerates the experimental evaluation of the Umzi
// paper (EDBT 2019, §8): Figures 8 through 15 plus the ablation studies
// listed in DESIGN.md. Numbers are normalized the same way the paper
// normalizes them, so the printed tables compare directly against the
// published curves.
//
// Usage:
//
//	umzi-bench -list
//	umzi-bench -figure 8            # one figure at the default scale
//	umzi-bench -figure all          # everything
//	umzi-bench -figure 9 -scale paper
//	umzi-bench -figure a1           # ablation A1 (offset array)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"umzi/internal/bench"
)

type driver struct {
	key  string
	name string
	run  func(bench.Scale) (*bench.Result, error)
}

func drivers() []driver {
	return []driver{
		{"8", "Figure 8: index build time vs run size", bench.Fig08IndexBuild},
		{"9", "Figure 9: single-run query performance", bench.Fig09SingleRun},
		{"10", "Figure 10: multi-run queries, sequential ingestion", bench.Fig10MultiRunSeq},
		{"11", "Figure 11: multi-run queries, random ingestion", bench.Fig11MultiRunRand},
		{"12", "Figure 12: concurrent readers", bench.Fig12ConcurrentReaders},
		{"13", "Figure 13: update-rate sweep", bench.Fig13UpdateRates},
		{"14", "Figure 14: purge levels", bench.Fig14PurgeLevels},
		{"15", "Figure 15: index evolve on/off", bench.Fig15Evolve},
		{"s1", "Figure S1: scatter-gather shard scaling (extension)", bench.FigS1ShardScaling},
		{"s3", "Figure S3: ingest throughput vs sync policy and group commit (extension)", bench.FigS3GroupCommit},
		{"a1", "Ablation A1: offset array width", bench.AblationOffsetArray},
		{"a3", "Ablation A3: synopsis pruning", bench.AblationSynopsis},
		{"a4", "Ablation A4: batched vs individual lookups", bench.AblationBatchSort},
		{"a5", "Ablation A5: merge policy knobs", bench.AblationMergePolicy},
		{"a8", "Ablation A8: secondary-index selection vs zone scan", bench.AblationSecondaryIndex},
	}
}

func main() {
	figure := flag.String("figure", "", "figure to run: 8..15, s1, s3, a1, a3..a5, a8, or 'all'")
	scaleName := flag.String("scale", "small", "sweep scale: small | paper | tiny")
	list := flag.Bool("list", false, "list available figures and exit")
	flag.Parse()

	if *list || *figure == "" {
		fmt.Println("available figures:")
		for _, d := range drivers() {
			fmt.Printf("  %-4s %s\n", d.key, d.name)
		}
		fmt.Println("\nrun with: umzi-bench -figure <key> [-scale small|paper|tiny]")
		if *figure == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var scale bench.Scale
	switch strings.ToLower(*scaleName) {
	case "small":
		scale = bench.SmallScale()
	case "paper":
		scale = bench.PaperScale()
	case "tiny":
		scale = bench.TinyScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small|paper|tiny)\n", *scaleName)
		os.Exit(2)
	}

	want := strings.ToLower(*figure)
	var selected []driver
	for _, d := range drivers() {
		if want == "all" || want == d.key {
			selected = append(selected, d)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *figure)
		os.Exit(2)
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].key < selected[j].key })

	for _, d := range selected {
		res, err := d.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", d.name, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
	}
}
