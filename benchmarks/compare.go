package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// disagreement is one (metric, workload) cell whose two values differ
// by more than the metric's bound.
type disagreement struct {
	Workload, Metric string
	Old, New, Rel    float64
	Bound            float64
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSuites checks every end-to-end cell of two suites. With
// symmetric set, a cell disagrees when the two values differ beyond the
// bound in either direction (same code, two runs); otherwise only when
// the new value is worse (parent against change).
func compareSuites(old, new *suite, symmetric bool) (all []disagreement, bad []disagreement) {
	oldBy := map[string]*result{}
	for _, r := range old.Runs {
		if !r.Trace {
			oldBy[r.Workload] = r
		}
	}
	for _, r := range new.Runs {
		o, ok := oldBy[r.Workload]
		if r.Trace || !ok {
			continue
		}
		for _, d := range endToEnd {
			a, b := o.Metrics[d.Name].Value, r.Metrics[d.Name].Value
			rel := worsening(d, a, b)
			if symmetric && rel < 0 {
				rel = worsening(d, b, a)
			}
			cell := disagreement{r.Workload, d.Name, a, b, rel, d.Bound}
			all = append(all, cell)
			if rel > d.Bound {
				bad = append(bad, cell)
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Rel > all[j].Rel })
	return all, bad
}

func loadSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func printCells(cells []disagreement) {
	for _, c := range cells {
		fmt.Printf("  %-14s %-28s %14.6g -> %-14.6g %+6.1f%% (bound %.0f%%)\n",
			c.Workload, c.Metric, c.Old, c.New, 100*c.Rel, 100*c.Bound)
	}
}

// compareFiles is -compare old.json new.json: every end-to-end cell,
// worst first, and an error if the new file is worse than the old
// beyond a bound.
func compareFiles(oldPath, newPath string) error {
	old, err := loadSuite(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadSuite(newPath)
	if err != nil {
		return err
	}
	all, bad := compareSuites(old, cur, false)
	printCells(all)
	if len(bad) > 0 {
		return fmt.Errorf("%d cells worse than their bound", len(bad))
	}
	return nil
}

// runSelfcheck runs the untraced suite twice on the same code and fails,
// listing the cells, if any (metric, workload) pair disagrees beyond its
// bound. setup_s is listed but, like in the harness's own acceptance
// check, only its bound on the way down matters.
func runSelfcheck(o options) error {
	ctx := context.Background()
	var suites [2]*suite
	for i := range suites {
		suites[i] = newSuite(o)
		for _, w := range workloads {
			if o.workload != "all" && o.workload != w.Name {
				continue
			}
			res, err := runWorkload(ctx, w.Name, o, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct {
				res.print(os.Stdout)
				return fmt.Errorf("%s: wrong results", w.Name)
			}
			fmt.Printf("pass %d %s done in %.1fs\n", i+1, w.Name, res.WallS)
			suites[i].Runs = append(suites[i].Runs, res)
		}
	}
	all, bad := compareSuites(suites[0], suites[1], true)
	printCells(all)
	if len(bad) > 0 {
		fmt.Println("cells beyond their bound:")
		printCells(bad)
		return fmt.Errorf("%d cells disagree beyond their bound", len(bad))
	}
	fmt.Println("selfcheck: every cell within its bound")
	return nil
}
